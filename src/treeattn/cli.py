"""Command-line interface: train, eval, parse, treescore, similarity.

Each subcommand declares its input and output flags once, on its parser.
Before any work, ``main`` requires every input to be a file and takes its
digest, and rejects an output that is a directory, lies in a missing
directory, or names the file of an input or of another output.  The
command then returns its configuration, seed and output texts, and
``main`` writes each file through ``data.write_file``, which replaces a
file only once its new bytes are complete, and last a JSON manifest
recording the configuration, input digests, seed, timestamps, and the
files written with their digests, so any output can be reproduced
bit-for-bit.  Exit codes: 0 success, 2 usage or input error (a model too
large to allocate, or a bad output path, included), 3 numeric failure
(a non-finite loss, or trained weights that overflow float32 in the
checkpoint).  Commands run with numpy's overflow, invalid and divide
warnings off, since every such value is checked and reported as exit 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

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
    """``--vocab-limit``, which no ``TrainConfig`` field range-checks."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


# outputs whose unset path defaults to the command's first output plus a suffix
_DEFAULT_SUFFIXES = {"metrics_log": ".metrics.tsv", "manifest": ".manifest.json"}


def _check_paths(args) -> dict:
    """Check the command's declared paths before any work; returns the
    ``{path: sha256}`` of its inputs, each of which must be a file.  Fills
    in the default output paths (the manifest's is ``treeattn-manifest.json``
    when the first output goes to stdout) and rejects an output that is a
    directory, lies in a missing directory, or names the file of an input or
    of another output.  Two inputs may name one file."""
    digests, flags = {}, {}
    for name in args.inputs:
        value = getattr(args, name)
        for path in value if isinstance(value, list) else [value]:
            if path is None:
                continue
            if not os.path.isfile(path):
                raise CliError(f"no such file: {path}")
            digests[str(path)] = _sha256(path)
            flags.setdefault(os.path.realpath(path), "--" + name.replace("_", "-"))
    anchor = getattr(args, args.outputs[0])
    for name in (*args.outputs, "manifest"):
        if not getattr(args, name) and name in _DEFAULT_SUFFIXES:
            setattr(args, name, f"{anchor}{_DEFAULT_SUFFIXES[name]}" if anchor
                    else "treeattn-manifest.json")
        path, flag = getattr(args, name), "--" + name.replace("_", "-")
        if not path:
            continue
        real = os.path.realpath(path)
        if os.path.isdir(real):
            raise CliError(f"output path is a directory: {path}")
        if not os.path.isdir(os.path.dirname(real)):
            raise CliError(f"no such directory for {flag} {path}")
        if real in flags:
            raise CliError(f"{flags[real]} and {flag} name the same file: {path}")
        flags[real] = flag
    return digests


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _finish(args, started: str, inputs: dict, config: dict, seed, outputs: dict) -> None:
    """Write each of the command's ``outputs`` (``{name: chunks}``) to the
    path ``_check_paths`` settled, an unset ``out`` to stdout, then the run
    manifest, which records the digest of every file written."""
    written = {}
    for name, chunks in outputs.items():
        path = getattr(args, name)
        if path:
            written[path] = write_file(path, chunks)
        elif name == "out":
            sys.stdout.writelines(chunks)
    manifest = {
        "tool": "treeattn",
        "version": __version__,
        "command": args.subcommand,
        "config": config,
        "inputs": inputs,
        "outputs": list(written),
        "output_sha256": written,
        "seed": seed,
        "started": started,
        "finished": _now(),
    }
    write_file(args.manifest, [json.dumps(manifest, indent=2, sort_keys=True), "\n"])


def _load_checkpoint(path) -> tuple:
    """The config of the checkpoint at ``path`` and the model it describes;
    a malformed checkpoint is an input error.  The checkpoint itself is not
    kept: the model holds float64 copies of the trained parameters, and a
    frozen embedding is the stored float32 array itself."""
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


def _usable_corpus(config: TrainConfig, flag: str, path, vocab) -> list:
    """The examples of the corpus that ``flag`` names at ``path``; a corpus
    that leaves none after loading is an input error naming both."""
    examples = load_corpus(config.task, path, vocab, config.labels, config.max_len)
    if not examples:
        raise CliError(f"{flag} {path}: no usable examples after loading")
    return examples


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> tuple:
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
    if args.dropout < 0.0:  # a rate above -1.1e-16 leaves dropout_keep at 1.0
        raise CliError(f"bad training setting: dropout rate must be nonnegative, "
                       f"got {args.dropout}")
    vocab, embedding = load_embeddings(args.embeddings, vocab_limit=args.vocab_limit,
                                       seed=seed, trainable=args.finetune_embeddings)
    train_set = _usable_corpus(config, "--train", args.train, vocab)
    val_set = _usable_corpus(config, "--val", args.val, vocab)

    result = train(train_set, val_set, config, vocab, embedding)
    best = result.checkpoint
    print(f"best epoch {best.epoch}: val acc {best.best_val_acc:.4f} -> {args.out}")
    return (json.loads(config.to_json()), seed,
            {"out": best.chunks(), "metrics_log": [result.log_text]})


def cmd_eval(args) -> tuple:
    cfg, model = _load_checkpoint(args.checkpoint)
    examples = _usable_corpus(cfg, "--corpus", args.corpus, model.vocab)
    result = evaluate(examples, model)
    print(f"accuracy\t{result.accuracy:.4f}")
    print(f"macro_f1\t{result.macro_f1:.4f}")
    predictions = (
        f"{p.index}\t{cfg.labels[p.gold]}\t{cfg.labels[p.predicted]}\t"
        + " ".join(f"{x:.6f}" for x in p.probs) + "\n" for p in result.predictions)
    return json.loads(cfg.to_json()), cfg.seed, {"predictions": predictions}


def cmd_parse(args) -> tuple:
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
    return json.loads(cfg.to_json()), cfg.seed, {
        "out": ["\n".join(tree_lines) + "\n"],
        "attention": ["\n".join(weight_rows) + "\n"]}


def cmd_treescore(args) -> tuple:
    if args.per_sentence and len(args.pred) > 1:
        raise CliError("--per-sentence needs exactly one --pred file")
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
    rows = []
    if args.per_sentence:
        rows.append("index\tlength\tf1_left\tf1_right\tf1_reference\tdepth\n")
        for s in reports[0].sentences:
            ref_cell = f"{s.f1_reference:.2f}" if s.f1_reference is not None else "-"
            rows.append(f"{s.index}\t{s.length}\t{s.f1_left:.2f}\t"
                        f"{s.f1_right:.2f}\t{ref_cell}\t{s.depth:.3f}\n")
    return ({"exclude_root": args.exclude_root, "micro": args.micro}, None,
            {"out": [text], "per_sentence": ["".join(rows)]})


def cmd_similarity(args) -> tuple:
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
    return (json.loads(cfg.to_json()), cfg.seed,
            {"out": ["".join(f"{s:.4f}\n" for s in scores)]})


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

# the train flags that take a number.  argparse reads a word after a flag
# that starts with "-" as another flag unless it is a plain decimal ("-1",
# "-0.5"), so ``main`` joins a negative value to its flag: "--lr -inf" is
# read as "--lr=-inf"
_NUMBER_FLAGS = frozenset(("--hidden", "--d-attn", "--d-clf", "--batch", "--dropout", "--lr",
                           "--epochs", "--patience", "--seed", "--temperature",
                           "--vocab-limit", "--max-len"))


def _negative_values_joined(argv: list[str]) -> list[str]:
    """``argv`` with each number flag and a following word that starts
    with "-" and reads as a float as one word ``--flag=value``."""
    words: list[str] = []
    for word in argv:
        if words and words[-1] in _NUMBER_FLAGS and word.startswith("-"):
            try:
                float(word)
            except ValueError:
                pass
            else:
                words[-1] += "=" + word
                continue
        words.append(word)
    return words


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
    # each default is that of the TrainConfig field the flag fills, and
    # TrainConfig checks its range: cmd_train reports a bad one as exit 2
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--d-attn", type=int, default=TrainConfig.d_attn)
    p.add_argument("--d-clf", type=int, default=TrainConfig.d_clf)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--dropout", type=float, default=1.0 - TrainConfig.dropout_keep,
                   help="dropout rate")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--seed", type=int, help="omit to draw one from entropy")
    p.add_argument("--temperature", type=float, default=TrainConfig.temperature)
    p.add_argument("--leaf", choices=("rnn", "affine"), default=TrainConfig.leaf_kind)
    p.add_argument("--finetune-embeddings", action="store_true")
    p.add_argument("--vocab-limit", type=_positive_int)
    p.add_argument("--max-len", type=int, default=TrainConfig.max_len)
    p.add_argument("--perturb-probs", action="store_true",
                   help="add selection noise to probabilities instead of log-probabilities")
    p.add_argument("--noise-per-sentence", action="store_true",
                   help="draw one noise vector per sentence instead of per layer")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_train, inputs=("train", "val", "embeddings"),
                   outputs=("out", "metrics_log"))

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", help="write per-example predictions TSV here")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_eval, inputs=("checkpoint", "corpus"), outputs=("predictions",))

    p = sub.add_parser("parse", help="induce trees for raw sentences")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--out", help="bracketed trees output (default: stdout)")
    p.add_argument("--attention", help="write per-node attention weights TSV here")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_parse, inputs=("checkpoint", "input"),
                   outputs=("out", "attention"))

    p = sub.add_parser("treescore", help="score predicted trees (bracket F1, depth)")
    p.add_argument("--pred", required=True, nargs="+",
                   help="predicted-tree file(s); several inputs add a max-over-inputs row")
    against = p.add_mutually_exclusive_group(required=True)
    against.add_argument("--ref", help="aligned reference trees")
    against.add_argument("--baselines-only", action="store_true",
                         help="score against branching baselines only")
    p.add_argument("--micro", action="store_true",
                   help="pool span counts over the corpus instead of macro-averaging")
    p.add_argument("--exclude-root", action="store_true",
                   help="drop the full-sentence span before scoring")
    p.add_argument("--per-sentence", help="write per-sentence scores TSV here")
    p.add_argument("--out", help="report output (default: stdout)")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_treescore, inputs=("pred", "ref"),
                   outputs=("out", "per_sentence"))

    p = sub.add_parser("similarity", help="cosine similarity of sentence pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True, help="tab-separated sentence pairs")
    p.add_argument("--out", help="scores output (default: stdout)")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_similarity, inputs=("checkpoint", "pairs"), outputs=("out",))
    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(
        _negative_values_joined(sys.argv[1:] if argv is None else list(argv)))
    started = _now()
    try:
        # every overflow, NaN and division by zero is checked where it
        # matters and reported as exit 3, so numpy's warnings only add noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inputs = _check_paths(args)
            _finish(args, started, inputs, *args.func(args))
        return 0
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
