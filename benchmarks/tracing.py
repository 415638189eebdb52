"""Layer spans recorded from outside the library.

A traced run wraps the public functions of each treeattn module at the
place they are called from (the module attribute the caller looks up at
call time), times every call, and counts the work each call was handed.
The library itself carries no hook; an untraced run installs nothing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from treeattn import attention, classifier, cli, data, parser, training, trees

# Operations recorded on the tape of a train-pair example at the commit
# that introduced this benchmark; anything else is counted as "other", so
# a new or fused op shows up without a change to the metric list.
TAPE_OPS = ("add", "matmul", "mul", "narrow", "sigmoid", "dot", "tanh", "concat",
            "sub", "relu", "softmax", "weighted_sum", "log", "st_onehot", "abs",
            "cross_entropy")


class Tracer:
    """Busy time, self time, call counts and work counts per span name."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._children: list[float] = []  # time covered by child spans, per open span

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - covered
                self.calls[name] += 1
                if count is not None:
                    count(self.counts, *args, **kwargs)
        return traced


def _count_tape(counts, tape, _loss):
    for record in tape._records:
        op = record.name if record.name in TAPE_OPS else "other"
        counts[f"tape_records.{op}"] += 1


def _count_candidates(counts, candidates, *_, **__):
    counts["candidates"] += len(candidates)


def _count_nodes(counts, nodes, *_, **__):
    counts["nodes"] += len(nodes)


# (span name, owner, attribute, work counter).  The owner is the namespace the caller
# resolves the name in: training.py imports ``backward`` by name, cli.py
# imports ``load_tree_corpus`` and ``score_corpus`` by name, model.py goes
# through the ``parser``/``attention``/``classifier`` modules, and
# ``induce_tree`` looks up ``compose`` and friends in its own module.
CALL_SITES = (
    ("tensor.backward", training, "backward", _count_tape),
    ("parser.leaf_transform", parser, "leaf_transform", None),
    ("parser.induce_tree", parser, "induce_tree", None),
    ("parser.compose", parser, "compose", None),
    ("parser.validity_scores", parser, "validity_scores", _count_candidates),
    ("parser.st_gumbel_select", parser, "st_gumbel_select", None),
    ("attention.attend", attention, "attend", _count_nodes),
    ("classifier.featurize_pair", classifier, "featurize_pair", None),
    ("classifier.classify", classifier, "classify", None),
    ("training.clip_gradients", training, "clip_gradients", None),
    ("training.Adam.step", training.Adam, "step", None),
    ("training.evaluate", training, "evaluate", None),
    ("training.snapshot", training, "snapshot", None),
    ("data.load_embeddings", data, "load_embeddings", None),
    ("data.load_pair_corpus", data, "load_pair_corpus", None),
    ("training.Checkpoint.load", training.Checkpoint, "load", None),
    ("data.load_tree_corpus", cli, "load_tree_corpus", None),
    ("trees.BinaryTree.span_set", trees.BinaryTree, "span_set", None),
    ("metrics.score_corpus", cli, "score_corpus", None),
    ("cli.main", cli, "main", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Route every call site through ``tracer`` until the block exits."""
    saved = []
    try:
        for name, owner, attr, count in CALL_SITES:
            saved.append((owner, attr, vars(owner)[attr]))
            # getattr binds classmethods, so the wrapper calls the bound form
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
