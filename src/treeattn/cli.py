"""Command-line interface: train, eval, parse, treescore, similarity.

Every run writes a JSON manifest recording the resolved configuration,
input digests, seed, and timestamps, so any output can be reproduced
bit-for-bit.  Exit codes: 0 success, 2 usage or input error (a model too
large to allocate included), 3 numeric failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import cosine_similarity
from .data import (CorpusError, load_corpus, load_embeddings, load_tree_corpus,
                   read_lines, tokenize)
from .metrics import score_corpus
from .tensor import NonFiniteError
from .training import (Checkpoint, ModelAllocationError, TrainConfig, TrainingDiverged,
                       evaluate, train)
from .trees import export_bracketed


class CliError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text}")
    return value


def _require_files(*paths) -> None:
    for path in paths:
        if path is not None and not Path(path).is_file():
            raise CliError(f"no such file: {path}")


def _reject_directories(*paths) -> None:
    for path in paths:
        if path is not None and Path(path).is_dir():
            raise CliError(f"output path is a directory: {path}")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(args, anchor, *, config: dict, inputs, outputs, seed) -> None:
    """Write the run manifest to ``--manifest``, else next to ``anchor``
    (the command's main output), else to ``treeattn-manifest.json``."""
    if args.manifest:
        path = Path(args.manifest)
    elif anchor:
        path = Path(str(anchor) + ".manifest.json")
    else:
        path = Path("treeattn-manifest.json")
    manifest = {
        "tool": "treeattn",
        "version": __version__,
        "command": args.subcommand,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
        "outputs": [str(p) for p in outputs if p is not None],
        "seed": seed,
        "started": args.started,
        "finished": _now(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_output(path, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_checkpoint(path) -> tuple:
    """A checkpoint and the model it describes; a malformed one is an
    input error."""
    _require_files(path)
    try:
        checkpoint = Checkpoint.load(path)
    except ValueError as err:
        raise CliError(str(err)) from None
    try:
        return checkpoint, checkpoint.build_model()
    except ValueError as err:
        raise CliError(f"{path}: {err}") from None


def _read_sentences(path):
    sentences = []
    for lineno, line in read_lines(path):
        tokens = tokenize(line)
        if not tokens:
            raise CliError(f"{path}:{lineno}: empty sentence")
        sentences.append(tokens)
    return sentences


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    _require_files(args.train, args.val, args.embeddings)
    # the outputs are written after the whole run, so check them first
    metrics_path = args.metrics_log or str(args.out) + ".metrics.tsv"
    _reject_directories(args.out, metrics_path, args.manifest)
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 31))
    labels = tuple(args.labels.split(","))
    try:
        config = TrainConfig(
            task=args.task, labels=labels, hidden=args.hidden, d_attn=args.d_attn,
            d_clf=args.d_clf, batch_size=args.batch, learning_rate=args.lr,
            dropout_keep=1.0 - args.dropout, max_epochs=args.epochs,
            patience=args.patience, seed=seed, temperature=args.temperature,
            leaf_kind=args.leaf, finetune_embeddings=args.finetune_embeddings,
            max_len=args.max_len,
            perturb_probs=args.perturb_probs,
            noise_per_layer=not args.noise_per_sentence)
    except ValueError as err:
        raise CliError(f"bad training setting: {err}") from None
    vocab, embedding = load_embeddings(args.embeddings, vocab_limit=args.vocab_limit,
                                       seed=seed, trainable=args.finetune_embeddings)
    train_set = load_corpus(config.task, args.train, vocab, labels, config.max_len)
    val_set = load_corpus(config.task, args.val, vocab, labels, config.max_len)
    if not train_set or not val_set:
        raise CliError("no usable examples after loading")

    result = train(train_set, val_set, config, vocab, embedding)
    result.checkpoint.save(args.out)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(result.log_text)
    best = result.checkpoint
    print(f"best epoch {best.epoch}: val acc {best.best_val_acc:.4f} -> {args.out}")
    _write_manifest(args, args.out, config=json.loads(config.to_json()),
                    inputs=[args.train, args.val, args.embeddings],
                    outputs=[args.out, metrics_path], seed=seed)
    return 0


def cmd_eval(args) -> int:
    _require_files(args.corpus)
    checkpoint, model = _load_checkpoint(args.checkpoint)
    cfg = checkpoint.config
    examples = load_corpus(cfg.task, args.corpus, model.vocab, cfg.labels, cfg.max_len)
    if not examples:
        raise CliError("no usable examples after loading")
    result = evaluate(examples, model)
    print(f"accuracy\t{result.accuracy:.4f}")
    print(f"macro_f1\t{result.macro_f1:.4f}")
    if args.predictions:
        with open(args.predictions, "w", encoding="utf-8") as fh:
            for p in result.predictions:
                probs = " ".join(f"{x:.6f}" for x in p.probs)
                fh.write(f"{p.index}\t{cfg.labels[p.gold]}\t"
                         f"{cfg.labels[p.predicted]}\t{probs}\n")
    _write_manifest(args, args.predictions, config=json.loads(cfg.to_json()),
                    inputs=[args.checkpoint, args.corpus],
                    outputs=[args.predictions], seed=cfg.seed)
    return 0


def cmd_parse(args) -> int:
    _require_files(args.input)
    checkpoint, model = _load_checkpoint(args.checkpoint)
    sentences = _read_sentences(args.input)
    tree_lines = []
    weight_rows = []
    for index, tokens in enumerate(sentences):
        encoded = model.encode(model.vocab.encode(tokens), mode="infer",
                               tokens=tuple(tokens))
        tree_lines.append(export_bracketed(encoded.tree))
        if args.attention:
            for node, (start, end) in enumerate(encoded.tree.node_spans()):
                weight = encoded.weights.data[node]
                text = " ".join(tokens[start:end])
                weight_rows.append(f"{index}\t{node}\t{start}\t{end}\t{weight:.6f}\t{text}")
    _write_output(args.out, "\n".join(tree_lines) + "\n")
    if args.attention:
        Path(args.attention).write_text("\n".join(weight_rows) + "\n", encoding="utf-8")
    _write_manifest(args, args.out, config=json.loads(checkpoint.config.to_json()),
                    inputs=[args.checkpoint, args.input],
                    outputs=[args.out, args.attention], seed=checkpoint.config.seed)
    return 0


def cmd_treescore(args) -> int:
    if args.ref is None and not args.baselines_only:
        raise CliError("provide --ref or pass --baselines-only")
    if args.per_sentence and len(args.pred) > 1:
        raise CliError("--per-sentence needs exactly one --pred file")
    _require_files(*args.pred, args.ref)
    ref = load_tree_corpus(args.ref) if args.ref else None
    reports = []
    for pred_path in args.pred:
        pred = load_tree_corpus(pred_path)
        try:
            reports.append(score_corpus(pred, ref, exclude_root=args.exclude_root,
                                        micro=args.micro))
        except ValueError as err:
            raise CliError(f"{pred_path}: {err}") from None
    if len(reports) == 1:
        text = reports[0].render()
    else:
        # several predicted corpora (e.g. checkpoints): per-input reports
        # plus the best score seen per column
        pieces = [f"# {path}\n{rep.render()}" for path, rep in zip(args.pred, reports)]
        best_ref = (max(r.f1_reference for r in reports)
                    if ref is not None else None)
        ref_cell = f"{best_ref:.1f}" if best_ref is not None else "-"
        pieces.append(f"# max over {len(reports)} inputs\n"
                      f"{max(r.f1_left for r in reports):16.1f} "
                      f"{max(r.f1_right for r in reports):16.1f} "
                      f"{ref_cell:>16}\n")
        text = "\n".join(pieces)
    _write_output(args.out, text)
    if args.per_sentence:
        with open(args.per_sentence, "w", encoding="utf-8") as fh:
            fh.write("index\tlength\tf1_left\tf1_right\tf1_reference\tdepth\n")
            for s in reports[0].sentences:
                ref_cell = f"{s.f1_reference:.2f}" if s.f1_reference is not None else "-"
                fh.write(f"{s.index}\t{s.length}\t{s.f1_left:.2f}\t"
                         f"{s.f1_right:.2f}\t{ref_cell}\t{s.depth:.3f}\n")
    _write_manifest(args, args.out,
                    config={"exclude_root": args.exclude_root, "micro": args.micro},
                    inputs=[*args.pred, args.ref],
                    outputs=[args.out, args.per_sentence], seed=None)
    return 0


def cmd_similarity(args) -> int:
    _require_files(args.pairs)
    checkpoint, model = _load_checkpoint(args.checkpoint)
    scores = []
    for lineno, line in read_lines(args.pairs):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise CliError(f"{args.pairs}:{lineno}: expected two tab-separated sentences")
        vectors = []
        for sentence in parts:
            tokens = tokenize(sentence)
            if not tokens:
                raise CliError(f"{args.pairs}:{lineno}: empty sentence")
            vectors.append(model.encode(model.vocab.encode(tokens)).sentence)
        scores.append(cosine_similarity(vectors[0], vectors[1]))
    _write_output(args.out, "".join(f"{s:.4f}\n" for s in scores))
    _write_manifest(args, args.out, config=json.loads(checkpoint.config.to_json()),
                    inputs=[args.checkpoint, args.pairs], outputs=[args.out],
                    seed=checkpoint.config.seed)
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treeattn",
        description="Latent-tree sentence encoder: train, evaluate, parse, "
                    "score trees, and probe sentence similarity.")
    top.add_argument("--version", action="version", version=f"treeattn {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="train a classifier and write a checkpoint")
    p.add_argument("--task", choices=("pair", "sentence"), required=True)
    p.add_argument("--train", required=True, help="training corpus (JSON records)")
    p.add_argument("--val", required=True, help="validation corpus (JSON records)")
    p.add_argument("--embeddings", required=True, help="word-vector text file")
    p.add_argument("--labels", required=True,
                   help="comma-separated label names, order fixes label indices")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics-log", help="metrics TSV path (default: <out>.metrics.tsv)")
    # each default is that of the TrainConfig field the flag fills
    p.add_argument("--hidden", type=_positive_int, default=TrainConfig.hidden)
    p.add_argument("--d-attn", type=_positive_int, default=TrainConfig.d_attn)
    p.add_argument("--d-clf", type=_positive_int, default=TrainConfig.d_clf)
    p.add_argument("--batch", type=_positive_int, default=TrainConfig.batch_size)
    p.add_argument("--dropout", type=_rate, default=1.0 - TrainConfig.dropout_keep,
                   help="dropout rate")
    p.add_argument("--lr", type=_positive_float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=_positive_int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=_nonnegative_int, default=TrainConfig.patience)
    p.add_argument("--seed", type=int, help="omit to draw one from entropy")
    p.add_argument("--temperature", type=_positive_float, default=TrainConfig.temperature)
    p.add_argument("--leaf", choices=("rnn", "affine"), default=TrainConfig.leaf_kind)
    p.add_argument("--finetune-embeddings", action="store_true")
    p.add_argument("--vocab-limit", type=_positive_int)
    p.add_argument("--max-len", type=_positive_int, default=TrainConfig.max_len)
    p.add_argument("--perturb-probs", action="store_true",
                   help="add selection noise to probabilities instead of log-probabilities")
    p.add_argument("--noise-per-sentence", action="store_true",
                   help="draw one noise vector per sentence instead of per layer")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", help="write per-example predictions TSV here")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("parse", help="induce trees for raw sentences")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--out", help="bracketed trees output (default: stdout)")
    p.add_argument("--attention", help="write per-node attention weights TSV here")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("treescore", help="score predicted trees (bracket F1, depth)")
    p.add_argument("--pred", required=True, nargs="+",
                   help="predicted-tree file(s); several inputs add a max-over-inputs row")
    p.add_argument("--ref", help="aligned reference trees")
    p.add_argument("--baselines-only", action="store_true",
                   help="score against branching baselines only")
    p.add_argument("--micro", action="store_true",
                   help="pool span counts over the corpus instead of macro-averaging")
    p.add_argument("--exclude-root", action="store_true",
                   help="drop the full-sentence span before scoring")
    p.add_argument("--per-sentence", help="write per-sentence scores TSV here")
    p.add_argument("--out", help="report output (default: stdout)")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_treescore)

    p = sub.add_parser("similarity", help="cosine similarity of sentence pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True, help="tab-separated sentence pairs")
    p.add_argument("--out", help="scores output (default: stdout)")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_similarity)
    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    args.started = _now()
    try:
        return args.func(args)
    except (CliError, CorpusError, ModelAllocationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TrainingDiverged, NonFiniteError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
