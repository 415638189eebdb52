"""Deterministic mini-batch training: Adam, early stopping, checkpoints.

Everything is derived from one master seed.  Parameter init, per-epoch
shuffles, and per-example noise/dropout streams are separate seed-sequence
children keyed by (purpose, epoch, example index), so results never depend
on batch composition order or thread scheduling.
"""

from __future__ import annotations

import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import EmbeddingMatrix, Vocabulary
from .model import Model
from .tensor import NonFiniteError, Tape, Tensor, backward

CHECKPOINT_MAGIC = "treeattn-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDiverged(ArithmeticError):
    """Training hit a non-finite loss; carries the offending example ids."""

    def __init__(self, epoch: int, batch_index: int, example_ids: list[int], cause: str):
        super().__init__(
            f"non-finite loss in epoch {epoch}, batch {batch_index}, "
            f"examples {example_ids}: {cause}")
        self.epoch = epoch
        self.batch_index = batch_index
        self.example_ids = example_ids


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
    threads: int = 1
    perturb_probs: bool = False
    noise_per_layer: bool = True

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if self.task not in ("pair", "sentence"):
            raise ValueError(f"task must be 'pair' or 'sentence', got {self.task!r}")
        if len(self.labels) < 2:
            raise ValueError("need at least two labels")
        for name in ("hidden", "d_attn", "d_clf", "batch_size", "max_epochs",
                     "max_len", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("learning_rate", "temperature", "clip_norm", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("Adam betas must lie in (0, 1)")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout keep-probability must lie in (0, 1]")
        if self.patience < 0:
            raise ValueError("patience must be nonnegative")

    def to_json(self) -> str:
        d = asdict(self)
        d["labels"] = list(self.labels)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        return cls(**json.loads(text))


def _build_model(config: TrainConfig, rng: np.random.Generator, vocab: Vocabulary,
                 embedding: EmbeddingMatrix) -> Model:
    """The model a training run or a checkpoint of ``config`` describes."""
    return Model.build(rng, task=config.task, num_classes=len(config.labels),
                       hidden=config.hidden, d_attn=config.d_attn, d_clf=config.d_clf,
                       vocab=vocab, embedding=embedding, leaf_kind=config.leaf_kind,
                       temperature=config.temperature,
                       perturb_probs=config.perturb_probs,
                       noise_per_layer=config.noise_per_layer)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adam_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, beta1: float, beta2: float, eps: float) -> None:
    """One bias-corrected Adam update, in place, in 64-bit arithmetic."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    value -= lr * m_hat / (np.sqrt(v_hat) + eps)


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            adam_step(p.data, grad, self.m[name], self.v[name], self.t,
                      self.lr, self.beta1, self.beta2, self.eps)


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


def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / np.sum(e)


def evaluate(examples, model, threads: int = 1) -> EvalResult:
    """Accuracy and macro-F1 with deterministic inference-mode trees.

    ``model`` may be a built :class:`Model` or a :class:`Checkpoint`.
    Inference runs per example (no padding, no batching), so results are
    identical for any batch size; ``threads`` only parallelizes the loop.
    """
    if not examples:
        raise ValueError("evaluate: empty corpus")
    if isinstance(model, Checkpoint):
        model = model.build_model()
    num_classes = model.num_classes
    for i, ex in enumerate(examples):
        if not 0 <= ex.label < num_classes:
            raise ValueError(f"example {i}: label {ex.label} outside the "
                             f"model's {num_classes} classes")

    def predict(item):
        i, ex = item
        logits = model.logits(ex, mode="infer")
        probs = _softmax_np(logits.data)
        return Prediction(i, ex.label, int(np.argmax(logits.data)), probs)

    items = list(enumerate(examples))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            predictions = list(pool.map(predict, items))
    else:
        predictions = [predict(item) for item in items]
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

    def save(self, path) -> None:
        header = io.StringIO()
        header.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
        header.write(self.config.to_json() + "\n")
        header.write(json.dumps({"epoch": self.epoch,
                                 "best_val_acc": self.best_val_acc,
                                 "rng_state": self.rng_state}, sort_keys=True) + "\n")
        header.write(json.dumps(self.vocab_words) + "\n")
        header.write(f"params {len(self.params)}\n")
        for name, arr in self.params.items():
            dims = " ".join(str(d) for d in arr.shape)
            header.write(f"{name} {dims}\n")
        header.write("blob\n")
        with open(path, "wb") as fh:
            fh.write(header.getvalue().encode("utf-8"))
            for arr in self.params.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as fh:
            raw = fh.read()
        cut = raw.find(b"blob\n")
        if cut < 0:
            raise ValueError(f"{path}: not a checkpoint (missing blob marker)")
        lines = raw[:cut].decode("utf-8").splitlines()
        magic = lines[0].split()
        if magic[0] != CHECKPOINT_MAGIC or int(magic[1]) != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint format {lines[0]!r}")
        config = TrainConfig.from_json(lines[1])
        meta = json.loads(lines[2])
        vocab_words = json.loads(lines[3])
        count = int(lines[4].split()[1])
        shapes = []
        for line in lines[5:5 + count]:
            parts = line.split()
            shapes.append((parts[0], tuple(int(d) for d in parts[1:])))
        blob = raw[cut + len(b"blob\n"):]
        params: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in shapes:
            size = int(np.prod(shape)) * 4
            chunk = blob[offset:offset + size]
            if len(chunk) != size:
                raise ValueError(f"{path}: truncated blob at parameter {name!r}")
            params[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
            offset += size
        if offset != len(blob):
            raise ValueError(f"{path}: {len(blob) - offset} trailing bytes in blob")
        return cls(config, vocab_words, params, meta["rng_state"],
                   meta["epoch"], meta["best_val_acc"])

    def build_model(self) -> Model:
        cfg = self.config
        vocab = Vocabulary(list(self.vocab_words),
                           {w: i for i, w in enumerate(self.vocab_words)})
        embedding = EmbeddingMatrix(
            Tensor(np.asarray(self.params["embedding"], dtype=np.float64),
                   requires_grad=cfg.finetune_embeddings),
            trainable=cfg.finetune_embeddings)
        model = _build_model(cfg, np.random.default_rng(0), vocab, embedding)
        model.load_state_arrays(self.params)
        return model


def snapshot(model: Model, config: TrainConfig, rng_state: dict, epoch: int,
             best_val_acc: float) -> Checkpoint:
    params = {name: np.asarray(arr, dtype=np.float32)
              for name, arr in model.state_arrays().items()}
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


def train(train_examples, val_examples, config: TrainConfig, vocab: Vocabulary,
          embedding: EmbeddingMatrix, *, clock=time.monotonic,
          stop_condition=None) -> TrainResult:
    """Full training run; returns the best checkpoint and the metrics log.

    Per epoch the corpus is reshuffled from a seeded stream, each example
    gets its own noise/dropout substream keyed by its corpus index, batch
    gradients are averaged and clipped to a global norm, and validation
    accuracy drives early stopping.  ``clock`` exists so the seconds column
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
            try:
                for orig_index in batch:
                    example = train_examples[int(orig_index)]
                    rng = _seeded(config.seed, 2, epoch, int(orig_index))
                    with Tape() as tape:
                        loss, logits = model.example_loss(
                            example, "train", rng, config.dropout_keep)
                        backward(tape, loss)
                    losses.append(loss.item())
                    if int(np.argmax(logits.data)) == example.label:
                        correct += 1
            except NonFiniteError as err:
                raise TrainingDiverged(epoch, batch_index // config.batch_size,
                                       [int(i) for i in batch], str(err)) from err
            inv = 1.0 / len(batch)
            for p in params.values():
                if p.grad is not None:
                    p.grad *= inv
            clip_gradients(params, config.clip_norm)
            optimizer.step()
            if config.finetune_embeddings:
                embedding.vectors.data[0] = 0.0  # PAD row stays zero
        train_loss = float(np.mean(losses))
        train_acc = correct / len(train_examples)
        val = evaluate(val_examples, model, threads=config.threads)
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
