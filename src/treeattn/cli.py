"""Command-line interface: train, eval, parse, treescore, similarity.

Every run writes a JSON manifest recording the resolved configuration,
input digests, seed, timestamps, and the files written with their digests,
so any output can be reproduced bit-for-bit.  Each command checks its
output paths before it loads anything, and writes every file through
``data.write_file``, which replaces a file only once its new bytes are
complete.  Exit codes: 0 success, 2 usage or input error (a model too
large to allocate, or two outputs naming one file, included), 3 numeric
failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import cosine_similarity
from .data import (CorpusError, load_corpus, load_embeddings, load_tree_corpus,
                   read_lines, tokenize, write_file)
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


def _resolve_outputs(args, *names) -> None:
    """Check the command's output paths, the ``args`` attributes ``names``
    (the main output first) and the manifest, before any work, filling in
    the manifest's default: next to the main output, else
    ``treeattn-manifest.json``.  Two paths naming one file, or a path whose
    directory does not exist, are an input error."""
    anchor = getattr(args, names[0])
    args.manifest = args.manifest or (f"{anchor}.manifest.json" if anchor
                                      else "treeattn-manifest.json")
    flags = {}
    for name in (*names, "manifest"):
        path = getattr(args, name)
        if not path:
            continue
        flag = "--" + name.replace("_", "-")
        real = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(real)):
            raise CliError(f"no such directory for {flag} {path}")
        if real in flags:
            raise CliError(f"{flags[real]} and {flag} name the same file: {path}")
        flags[real] = flag


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


def _write_manifest(args, *, config: dict, inputs, outputs: dict, seed) -> None:
    """Write the run manifest to the path ``_resolve_outputs`` settled;
    ``outputs`` maps each file written to its digest."""
    manifest = {
        "tool": "treeattn",
        "version": __version__,
        "command": args.subcommand,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
        "outputs": list(outputs),
        "output_sha256": outputs,
        "seed": seed,
        "started": args.started,
        "finished": _now(),
    }
    write_file(args.manifest, [json.dumps(manifest, indent=2, sort_keys=True), "\n"])


def _write_output(written: dict, path, text: str) -> None:
    """Write ``text`` to ``path`` and record its digest in ``written``, or
    write it to stdout when no path is given."""
    if path:
        written[path] = write_file(path, [text])
    else:
        sys.stdout.write(text)


def _load_checkpoint(path) -> tuple:
    """The config of the checkpoint at ``path`` and the model it describes;
    a malformed checkpoint is an input error.  The checkpoint itself is not
    kept: the model holds its own copy of the parameters."""
    _require_files(path)
    try:
        checkpoint = Checkpoint.load(path)
    except ValueError as err:
        raise CliError(str(err)) from None
    try:
        return checkpoint.config, checkpoint.build_model()
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
    args.metrics_log = args.metrics_log or f"{args.out}.metrics.tsv"
    _resolve_outputs(args, "out", "metrics_log")
    _reject_directories(args.out, args.metrics_log, args.manifest)
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
    best = result.checkpoint
    written = {args.out: best.save(args.out),
               args.metrics_log: write_file(args.metrics_log, [result.log_text])}
    print(f"best epoch {best.epoch}: val acc {best.best_val_acc:.4f} -> {args.out}")
    _write_manifest(args, config=json.loads(config.to_json()),
                    inputs=[args.train, args.val, args.embeddings],
                    outputs=written, seed=seed)
    return 0


def cmd_eval(args) -> int:
    _require_files(args.corpus)
    _resolve_outputs(args, "predictions")
    cfg, model = _load_checkpoint(args.checkpoint)
    examples = load_corpus(cfg.task, args.corpus, model.vocab, cfg.labels, cfg.max_len)
    if not examples:
        raise CliError("no usable examples after loading")
    result = evaluate(examples, model)
    print(f"accuracy\t{result.accuracy:.4f}")
    print(f"macro_f1\t{result.macro_f1:.4f}")
    written = {}
    if args.predictions:
        written[args.predictions] = write_file(args.predictions, (
            f"{p.index}\t{cfg.labels[p.gold]}\t{cfg.labels[p.predicted]}\t"
            + " ".join(f"{x:.6f}" for x in p.probs) + "\n" for p in result.predictions))
    _write_manifest(args, config=json.loads(cfg.to_json()),
                    inputs=[args.checkpoint, args.corpus], outputs=written, seed=cfg.seed)
    return 0


def cmd_parse(args) -> int:
    _require_files(args.input)
    _resolve_outputs(args, "out", "attention")
    cfg, model = _load_checkpoint(args.checkpoint)
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
    written = {}
    _write_output(written, args.out, "\n".join(tree_lines) + "\n")
    if args.attention:
        _write_output(written, args.attention, "\n".join(weight_rows) + "\n")
    _write_manifest(args, config=json.loads(cfg.to_json()),
                    inputs=[args.checkpoint, args.input], outputs=written, seed=cfg.seed)
    return 0


def cmd_treescore(args) -> int:
    if args.ref is None and not args.baselines_only:
        raise CliError("provide --ref or pass --baselines-only")
    if args.per_sentence and len(args.pred) > 1:
        raise CliError("--per-sentence needs exactly one --pred file")
    _require_files(*args.pred, args.ref)
    _resolve_outputs(args, "out", "per_sentence")
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
    written = {}
    _write_output(written, args.out, text)
    if args.per_sentence:
        rows = ["index\tlength\tf1_left\tf1_right\tf1_reference\tdepth\n"]
        for s in reports[0].sentences:
            ref_cell = f"{s.f1_reference:.2f}" if s.f1_reference is not None else "-"
            rows.append(f"{s.index}\t{s.length}\t{s.f1_left:.2f}\t"
                        f"{s.f1_right:.2f}\t{ref_cell}\t{s.depth:.3f}\n")
        _write_output(written, args.per_sentence, "".join(rows))
    _write_manifest(args, config={"exclude_root": args.exclude_root, "micro": args.micro},
                    inputs=[*args.pred, args.ref], outputs=written, seed=None)
    return 0


def cmd_similarity(args) -> int:
    _require_files(args.pairs)
    _resolve_outputs(args, "out")
    cfg, model = _load_checkpoint(args.checkpoint)
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
    written = {}
    _write_output(written, args.out, "".join(f"{s:.4f}\n" for s in scores))
    _write_manifest(args, config=json.loads(cfg.to_json()),
                    inputs=[args.checkpoint, args.pairs], outputs=written, seed=cfg.seed)
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
