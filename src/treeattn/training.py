"""Deterministic mini-batch training: Adam, early stopping, checkpoints.

Everything is derived from one master seed.  Parameter init, per-epoch
shuffles, and per-example noise/dropout streams are separate seed-sequence
children keyed by (purpose, epoch, example index), so results never depend
on batch composition order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import MISSING, dataclass, field, fields, asdict

import numpy as np

from .data import PAD_INDEX, EmbeddingMatrix, Vocabulary, write_file
from .model import Model
from .parser import GumbelConfig
from .tensor import (GradientBatch, NonFiniteError, Tape, Tensor, backward, cross_entropy,
                     stable_softmax)

CHECKPOINT_MAGIC = "treeattn-checkpoint"
CHECKPOINT_VERSION = 1
_BLOB_MARKER = b"blob\n"  # the line that ends a checkpoint's header; the float32 blob follows
# examples per lockstep group in evaluate: large enough to share the per-call
# work of tree induction, small enough that a group's arrays stay small
EVAL_GROUP = 8
# examples per lockstep group of a training batch, whose forward arrays live
# until its backward pass: on the train-pair benchmark, groups of 4, 8 and 16
# trained about equally fast, and only groups of 4 kept the peak memory flat
TRAIN_GROUP = 4


class TrainingDiverged(ArithmeticError):
    """Training hit a non-finite loss; carries the offending example ids."""

    def __init__(self, epoch: int, batch_index: int, example_ids: list[int], cause: str):
        super().__init__(
            f"non-finite loss in epoch {epoch}, batch {batch_index}, "
            f"examples {example_ids}: {cause}")
        self.epoch = epoch
        self.batch_index = batch_index
        self.example_ids = example_ids


class ModelAllocationError(ValueError):
    """The arrays of the model a config describes cannot be allocated."""


# the values a TrainConfig field of each declared type takes
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool}


@dataclass
class TrainConfig:
    task: str
    labels: tuple[str, ...]
    hidden: int = 100
    d_attn: int = 128
    d_clf: int = 1024
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout_keep: float = 0.87
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0
    temperature: float = 1.0
    leaf_kind: str = "rnn"
    finetune_embeddings: bool = False
    clip_norm: float = 5.0
    max_len: int = 120
    threads: int = 1  # ignored; kept so that saved checkpoints load and re-save unchanged
    perturb_probs: bool = False
    noise_per_layer: bool = True

    def __post_init__(self):
        # one check per declared field type: a config read from JSON may hold
        # any JSON value in any field
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple[str, ...]":
                expected = "a list of strings"
                ok = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
            else:
                # a bool is an int to Python, and a JSON 1 may fill a float field
                expected = f"of type {f.type}"
                ok = isinstance(value, _FIELD_TYPES[f.type]) and (
                    f.type == "bool" or not isinstance(value, bool))
            if not ok:
                raise TypeError(f"{f.name} must be {expected}, got {value!r}")
        self.labels = tuple(self.labels)
        if self.task not in ("pair", "sentence"):
            raise ValueError(f"task must be 'pair' or 'sentence', got {self.task!r}")
        if self.leaf_kind not in ("rnn", "affine"):
            raise ValueError(f"leaf_kind must be 'rnn' or 'affine', got {self.leaf_kind!r}")
        if len(self.labels) < 2:
            raise ValueError("need at least two labels")
        for i, label in enumerate(self.labels):
            if not label:
                raise ValueError("a label is empty")
            if label in self.labels[:i]:
                raise ValueError(f"label {label!r} is given twice")
        for name in ("hidden", "d_attn", "d_clf", "batch_size", "max_epochs",
                     "max_len", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("learning_rate", "temperature", "clip_norm", "adam_eps"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError(f"dropout_keep must lie in (0, 1], got {self.dropout_keep}")
        if self.patience < 0:
            raise ValueError(f"patience must be nonnegative, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def to_json(self) -> str:
        d = asdict(self)
        d["labels"] = list(self.labels)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValueError("config is not a JSON object")
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
        missing = [f.name for f in fields(cls) if f.name not in values
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing config key {', '.join(map(repr, missing))}")
        try:
            return cls(**values)
        except TypeError as err:  # a value of the wrong JSON type
            raise ValueError(str(err)) from None


def _build_model(config: TrainConfig, rng: np.random.Generator, vocab: Vocabulary,
                 embedding: EmbeddingMatrix) -> Model:
    """The model a training run or a checkpoint of ``config`` describes.

    A config is checked when it is made, so numpy's refusal of an array
    size, or a failed allocation, is all this can raise; it raises
    ``ModelAllocationError`` naming the sizes."""
    try:
        return Model.build(rng, task=config.task, num_classes=len(config.labels),
                           hidden=config.hidden, d_attn=config.d_attn, d_clf=config.d_clf,
                           vocab=vocab, embedding=embedding, leaf_kind=config.leaf_kind,
                           selection=GumbelConfig(temperature=config.temperature,
                                                  perturb_probs=config.perturb_probs,
                                                  noise_per_layer=config.noise_per_layer))
    except (ValueError, MemoryError) as err:
        raise ModelAllocationError(
            f"cannot allocate a model with hidden {config.hidden}, d_attn {config.d_attn} "
            f"and d_clf {config.d_clf}: {err}") from None


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adam_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, beta1: float, beta2: float, eps: float,
              scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """One bias-corrected Adam update, in place, in 64-bit arithmetic:
    ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + ((1 - beta2) g) g`` and
    ``value -= (lr m_hat) / (sqrt(v_hat) + eps)``, in that association.
    ``scratch`` is two float64 arrays of ``value``'s shape that the step
    overwrites, so it allocates nothing."""
    a, b = scratch
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=a)
    m += a
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=a)
    a *= grad
    v += a
    np.divide(m, 1.0 - beta1 ** t, out=a)
    a *= lr
    np.divide(v, 1.0 - beta2 ** t, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    value -= a


class Adam:
    """Adam over named parameters, with two scratch buffers of the largest
    parameter's size that every parameter's step shares."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._scratch = np.empty((2, max((p.data.size for p in params.values()), default=0)))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            a, b = (s[:p.data.size].reshape(p.data.shape) for s in self._scratch)
            adam_step(p.data, grad, self.m[name], self.v[name], self.t,
                      self.lr, self.beta1, self.beta2, self.eps, (a, b))


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class Prediction:
    index: int
    gold: int
    predicted: int
    probs: np.ndarray


@dataclass
class EvalResult:
    accuracy: float
    macro_f1: float
    predictions: list[Prediction]


def macro_f1(gold: list[int], predicted: list[int], num_classes: int) -> float:
    """Unweighted mean of per-class F1 over the classes that occur.

    A class with gold support but no correct predictions scores 0; classes
    absent from both gold and predictions are left out of the mean.
    """
    scores = []
    for c in range(num_classes):
        tp = sum(1 for g, p in zip(gold, predicted) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, predicted) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, predicted) if g == c and p != c)
        denom = 2 * tp + fp + fn
        if denom:
            scores.append(2.0 * tp / denom)
    return float(np.mean(scores)) if scores else 0.0


def evaluate(examples, model: Model) -> EvalResult:
    """Accuracy and macro-F1 with deterministic inference-mode trees.

    The examples are encoded in groups of ``EVAL_GROUP``, the trees of a
    group's sentences induced in lockstep (``Model.batch_logits``).  No
    example is padded and every matrix product stays per sentence, so each
    example's probabilities are bit for bit those of encoding it alone,
    whatever the group holds; a group is freed before the next is encoded.
    """
    if not examples:
        raise ValueError("evaluate: empty corpus")
    num_classes = model.num_classes
    for i, ex in enumerate(examples):
        if not 0 <= ex.label < num_classes:
            raise ValueError(f"example {i}: label {ex.label} outside the "
                             f"model's {num_classes} classes")

    predictions = []
    for start in range(0, len(examples), EVAL_GROUP):
        group = examples[start:start + EVAL_GROUP]
        for i, (ex, logits) in enumerate(zip(group, model.batch_logits(group)), start):
            probs = stable_softmax(logits.data)
            predictions.append(Prediction(i, ex.label, int(np.argmax(logits.data)), probs))
    gold = [p.gold for p in predictions]
    pred = [p.predicted for p in predictions]
    accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / len(predictions)
    return EvalResult(accuracy, macro_f1(gold, pred, num_classes), predictions)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A trained model frozen to disk-format values (float32)."""

    config: TrainConfig
    vocab_words: list[str]
    params: dict[str, np.ndarray]
    rng_state: dict
    epoch: int
    best_val_acc: float

    def save(self, path) -> str:
        """Write the checkpoint to ``path``; returns the SHA-256 of its bytes."""
        return write_file(path, self.chunks())

    def chunks(self):
        """The checkpoint's bytes, as ``save`` writes them: the header
        lines, then each parameter as little-endian float32."""
        yield f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n"
        yield self.config.to_json() + "\n"
        yield json.dumps({"epoch": self.epoch, "best_val_acc": self.best_val_acc,
                          "rng_state": self.rng_state}, sort_keys=True) + "\n"
        yield json.dumps(self.vocab_words) + "\n"
        yield f"params {len(self.params)}\n"
        for name, arr in self.params.items():
            yield f"{name} {' '.join(str(d) for d in arr.shape)}\n"
        yield _BLOB_MARKER
        for arr in self.params.values():
            yield np.ascontiguousarray(arr, dtype="<f4")

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """The checkpoint stored at ``path``; a malformed header, a blob
        shorter than its parameter shapes or longer than them raises
        ``ValueError`` naming the file.  The header is read a line at a
        time up to the line ``blob``, then each parameter is read from the
        file straight into its own float32 array, so a load holds one copy
        of the blob."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = []
            while (line := fh.readline()) != _BLOB_MARKER:
                if not line:
                    raise ValueError(f"{path}: not a checkpoint (missing blob marker)")
                header.append(line)
            try:
                config, meta, vocab_words, shapes = _read_header(b"".join(header))
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
            offset = fh.tell()
            params: dict[str, np.ndarray] = {}
            for name, shape in shapes:
                count = math.prod(shape)  # a Python int: a product of header dims cannot wrap
                if 4 * count > size - offset:  # checked before the array is allocated
                    raise ValueError(f"{path}: truncated blob at parameter {name!r}")
                values = np.empty(shape, "<f4")
                if fh.readinto(values) != 4 * count:
                    raise ValueError(f"{path}: truncated blob at parameter {name!r}")
                params[name] = values
                offset += 4 * count
        if offset != size:
            raise ValueError(f"{path}: {size - offset} trailing bytes in blob")
        return cls(config, vocab_words, params, meta["rng_state"],
                   meta["epoch"], meta["best_val_acc"])

    def build_model(self) -> Model:
        """The model the config describes, holding the stored parameters;
        a parameter that is missing, unknown, of the wrong shape or not
        finite, or a vocabulary that does not match the embedding rows or
        repeats a word, raises ``ValueError`` naming it.  The config's sizes
        are checked against the stored arrays before a model of those sizes
        is allocated."""
        cfg = self.config

        # the stored array of ``name``, which must exist and, given a
        # ``shape``, have it
        def stored(name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
            values = self.params.get(name)
            if values is None:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            if shape is not None and values.shape != shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {values.shape} != {shape}")
            return values

        stored("composition.weight", (5 * cfg.hidden, 2 * cfg.hidden))
        stored("attention.embed_weight", (cfg.d_attn, cfg.hidden))
        stored("head.hidden_bias", (cfg.d_clf,))
        vectors = stored("embedding")
        if vectors.ndim != 2 or vectors.shape[0] != len(self.vocab_words):
            raise ValueError(f"vocabulary has {len(self.vocab_words)} words but parameter "
                             f"'embedding' has shape {vectors.shape}")
        vocab = Vocabulary(list(self.vocab_words))
        try:  # a frozen table adopts the stored float32 array as it is
            embedding = EmbeddingMatrix(Tensor(vectors.astype(np.float64), requires_grad=True)
                                        if cfg.finetune_embeddings else vectors)
        except NonFiniteError:
            raise ValueError("parameter 'embedding' has non-finite values") from None
        model = _build_model(cfg, np.random.default_rng(0), vocab, embedding)
        # every other parameter's stored values are copied into the float64
        # array the model was built with, so none aliases self.params
        params = model.parameters()
        params.pop("embedding", None)
        for name, tensor in params.items():
            values = stored(name, tensor.shape)
            if not np.isfinite(values).all():
                raise ValueError(f"parameter {name!r} has non-finite values")
            tensor.data[...] = values
        unknown = [name for name in self.params if name not in params and name != "embedding"]
        if unknown:
            raise ValueError(f"checkpoint has unknown parameter {unknown[0]!r}")
        return model


def _read_header(header: bytes):
    """Config, metadata, vocabulary and parameter shapes of a checkpoint
    header; a missing or malformed line raises ``ValueError`` naming it."""
    lines = iter(header.decode("utf-8").splitlines())

    def line(what: str) -> str:
        text = next(lines, None)
        if text is None:
            raise ValueError(f"truncated header: no {what} line")
        return text

    def json_line(what: str, kind: type):
        try:
            value = json.loads(line(what))
        except json.JSONDecodeError as err:
            raise ValueError(f"bad {what} line: {err}") from None
        if not isinstance(value, kind):
            raise ValueError(f"bad {what} line: not a JSON {kind.__name__}")
        return value

    def numbered_line(what: str) -> tuple[str, tuple[int, ...]]:
        # "<word> <n> <n> ..." with natural numbers n
        text = line(what)
        words = text.split()
        if not words or not all(w.isascii() and w.isdigit() for w in words[1:]):
            raise ValueError(f"bad {what} line {text!r}")
        return words[0], tuple(int(w) for w in words[1:])

    magic = line("format")
    if magic.split() != [CHECKPOINT_MAGIC, str(CHECKPOINT_VERSION)]:
        raise ValueError(f"unsupported checkpoint format {magic!r}")
    config_text = line("config")
    try:
        config = TrainConfig.from_json(config_text)
    except ValueError as err:
        raise ValueError(f"bad config: {err}") from None
    meta = json_line("metadata", dict)
    missing = [k for k in ("epoch", "best_val_acc", "rng_state") if k not in meta]
    if missing:
        raise ValueError(f"metadata is missing key {', '.join(map(repr, missing))}")
    vocab_words = json_line("vocabulary", list)
    if not all(isinstance(word, str) for word in vocab_words):
        raise ValueError("bad vocabulary line: not a list of strings")
    head, count = numbered_line("parameter count")
    if head != "params" or len(count) != 1:
        raise ValueError("bad parameter count line: expected 'params <n>'")
    shapes = [numbered_line("parameter shape") for _ in range(count[0])]
    extra = next(lines, None)
    if extra is not None:
        raise ValueError(f"unexpected header line {extra!r} after the {count[0]} "
                         f"parameter shape lines")
    return config, meta, vocab_words, shapes


def snapshot(model: Model, config: TrainConfig, rng_state: dict, epoch: int,
             best_val_acc: float) -> Checkpoint:
    """The model's parameters as a checkpoint stores them, in float32; a
    frozen embedding is its own table, not a copy.  A parameter whose
    float32 rounding is not finite raises ``NonFiniteError`` naming it."""
    arrays = {name: t.data for name, t in model.parameters().items()}
    arrays.setdefault("embedding", model.embedding.vectors)  # a frozen table, last
    params = {}
    for name, arr in arrays.items():
        with np.errstate(over="ignore"):
            stored = np.asarray(arr, dtype=np.float32)
        if stored is not arr and not np.isfinite(stored).all():
            raise NonFiniteError(f"parameter {name!r} overflows float32 in the checkpoint")
        params[name] = stored
    return Checkpoint(config, list(model.vocab.index_to_word), params,
                      rng_state, epoch, best_val_acc)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    seconds: float


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[EpochMetrics] = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)

    @property
    def log_text(self) -> str:
        return "\n".join(self.log_lines) + "\n"


def _seeded(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def batch_gradients(model: Model, examples, rngs: list[np.random.Generator],
                    dropout_keep: float,
                    weight_grads: GradientBatch) -> list[tuple[Tensor, Tensor]]:
    """The (loss, logits) of each example of a training batch, whose
    gradients the backward pass adds to the parameters, leaving their
    deferred weight gradients in ``weight_grads``.

    The batch runs in groups of ``TRAIN_GROUP`` examples, each forward and then
    backward before the next.  A group's forward pass is
    ``Model.batch_logits`` in ``train`` mode: the leaves and trees of all
    its sentences on one tape, then each example's pooling, head and loss
    on a tape of its own.  Its backward pass replays the examples' tapes in
    example order, then the group's.  Every tensor so receives its
    gradients in the order that one tape per example, replayed one after
    another, gives them, so each parameter's gradient is bit for bit that
    of the examples as batches of one under one ``GradientBatch``.
    """
    results = []
    for start in range(0, len(examples), TRAIN_GROUP):
        group = examples[start:start + TRAIN_GROUP]
        tapes = [Tape(weight_grads) for _ in group]
        with Tape(weight_grads) as group_tape:
            all_logits = model.batch_logits(group, "train", rngs[start:start + TRAIN_GROUP],
                                            dropout_keep, tapes)
        for i, (example, logits) in enumerate(zip(group, all_logits)):
            tape, tapes[i] = tapes[i], None  # free each example's tape once replayed
            with tape:
                loss = cross_entropy(logits, example.label)
            backward(tape, loss)
            results.append((loss, logits))
        backward(group_tape, None)
    return results


def train(train_examples, val_examples, config: TrainConfig, vocab: Vocabulary,
          embedding: EmbeddingMatrix, *, clock=time.monotonic,
          stop_condition=None) -> TrainResult:
    """Full training run; returns the best checkpoint and the metrics log.

    Per epoch the corpus is reshuffled from a seeded stream, each example
    gets its own noise/dropout substream keyed by its corpus index, a
    batch's gradients (``batch_gradients``, which trains the batch in
    lockstep groups bit for bit as one example at a time) are averaged and
    clipped to a global norm, and validation accuracy drives early
    stopping.  ``clock`` exists so the seconds column
    of the log can be made deterministic in tests; ``stop_condition`` may
    inspect each epoch's metrics and end the run early (e.g. once a target
    accuracy is reached).
    """
    if not train_examples:
        raise ValueError("train: empty training corpus")
    if not val_examples:
        raise ValueError("train: empty validation corpus")
    if embedding.trainable != config.finetune_embeddings:
        raise ValueError("embedding.trainable must match config.finetune_embeddings")

    model = _build_model(config, _seeded(config.seed, 0), vocab, embedding)
    params = model.parameters()
    optimizer = Adam(params, config.learning_rate, config.beta1, config.beta2,
                     config.adam_eps)

    result = TrainResult(checkpoint=None)  # type: ignore[arg-type]
    result.log_lines = [
        "# treeattn training log",
        f"# config {config.to_json()}",
        "# defaults note: learning rate 0.001 (a 0.5 rate is accepted via --lr "
        "but usually diverges under Adam at this scale)",
        "# columns: epoch train_loss train_acc val_acc seconds",
    ]

    best_acc = float("-inf")
    best_checkpoint: Checkpoint | None = None
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        started = clock()
        order = _seeded(config.seed, 1, epoch).permutation(len(train_examples))
        losses: list[float] = []
        correct = 0
        for batch_index in range(0, len(order), config.batch_size):
            batch = order[batch_index:batch_index + config.batch_size]
            optimizer.zero_grad()
            weight_grads = GradientBatch()  # one matrix product per weight per batch
            examples = [train_examples[int(i)] for i in batch]
            rngs = [_seeded(config.seed, 2, epoch, int(i)) for i in batch]
            try:
                for example, (loss, logits) in zip(examples, batch_gradients(
                        model, examples, rngs, config.dropout_keep, weight_grads)):
                    losses.append(loss.item())
                    if int(np.argmax(logits.data)) == example.label:
                        correct += 1
            except NonFiniteError as err:
                raise TrainingDiverged(epoch, batch_index // config.batch_size,
                                       [int(i) for i in batch], str(err)) from err
            weight_grads.flush()
            inv = 1.0 / len(batch)
            for p in params.values():
                if p.grad is not None:
                    p.grad *= inv
            clip_gradients(params, config.clip_norm)
            optimizer.step()
            if config.finetune_embeddings:
                embedding.vectors.data[PAD_INDEX] = 0.0  # PAD row stays zero
        train_loss = float(np.mean(losses))
        train_acc = correct / len(train_examples)
        val = evaluate(val_examples, model)
        seconds = clock() - started
        metrics = EpochMetrics(epoch, train_loss, train_acc, val.accuracy, seconds)
        result.history.append(metrics)
        result.log_lines.append(
            f"{epoch}\t{train_loss:.6f}\t{train_acc:.4f}\t{val.accuracy:.4f}\t{seconds:.3f}")
        if val.accuracy > best_acc:
            best_acc = val.accuracy
            epochs_since_best = 0
            rng_state = _seeded(config.seed, 1, epoch + 1).bit_generator.state
            best_checkpoint = snapshot(model, config, rng_state, epoch, best_acc)
        else:
            epochs_since_best += 1
            if epochs_since_best > config.patience:
                result.log_lines.append(f"# early stop after epoch {epoch}")
                break
        if stop_condition is not None and stop_condition(metrics):
            result.log_lines.append(f"# stop condition met after epoch {epoch}")
            break

    assert best_checkpoint is not None
    result.checkpoint = best_checkpoint
    return result
