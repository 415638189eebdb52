"""Synthetic corpora and embedding files for demos and end-to-end checks."""

from __future__ import annotations

import json

import numpy as np

from .data import write_file

SUBSET_LABELS = ("mixed", "subset")


def token_name(i: int) -> str:
    return f"tok{i:02d}"


def subset_pair_records(count: int, vocab_size: int = 50, min_len: int = 3,
                        max_len: int = 8, seed: int = 0) -> list[dict]:
    """Balanced premise/hypothesis records labeled by token containment.

    Positive ("subset") hypotheses reuse only premise tokens; negative
    ("mixed") hypotheses contain at least one token absent from the
    premise.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        premise_len = int(rng.integers(min_len, max_len + 1))
        premise = rng.integers(0, vocab_size, size=premise_len)
        hyp_len = int(rng.integers(min_len, max_len + 1))
        if i % 2 == 0:
            hypothesis = rng.choice(premise, size=hyp_len)
            label = "subset"
        else:
            hypothesis = rng.integers(0, vocab_size, size=hyp_len)
            outside = np.setdiff1d(np.arange(vocab_size), premise)
            if not np.any(~np.isin(hypothesis, premise)):
                hypothesis[rng.integers(0, hyp_len)] = rng.choice(outside)
            label = "mixed"
        records.append({
            "premise": " ".join(token_name(t) for t in premise),
            "hypothesis": " ".join(token_name(t) for t in hypothesis),
            "label": label,
        })
    return records


def write_pair_corpus(path, records) -> None:
    write_file(path, (json.dumps(record) + "\n" for record in records))


def write_embedding_file(path, vocab_size: int = 50, dim: int = 16,
                         seed: int = 0) -> None:
    """Random unit-scale word vectors, one "word v1 .. vD" line per token."""
    rng = np.random.default_rng(seed)
    lines = (token_name(i) + " " + " ".join(f"{v:.6f}" for v in rng.normal(0.0, 0.5, size=dim))
             + "\n" for i in range(vocab_size))
    write_file(path, lines)
