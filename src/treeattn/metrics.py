"""Tree-quality scoring: unlabeled bracket F1 and average depth.

Predicted trees are compared against strictly left- and right-branching
baselines built from sentence lengths alone, and optionally against
reference trees.  Spans are half-open word intervals of width >= 2; the
full-sentence span is included by default, single-word spans never count,
and sentences of length <= 2 score 100 against everything because only
one binary shape exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import BinaryTree


@dataclass(frozen=True)
class SpanSet:
    """Constituent spans of one sentence, tagged with its length."""

    n: int
    spans: frozenset[tuple[int, int]]


def spans_of(tree: BinaryTree) -> SpanSet:
    """Every internal node's leaf interval; empty for one-word sentences."""
    return SpanSet(tree.n, tree.span_set())


def unlabeled_f1(pred: SpanSet, ref: SpanSet) -> float:
    """Bracket F1 in [0, 100] between two span sets over one sentence."""
    if pred.n != ref.n:
        raise ValueError(f"sentence lengths differ: {pred.n} vs {ref.n}")
    if pred.n <= 2:
        return 100.0
    if not pred.spans or not ref.spans:
        return 0.0 if pred.spans != ref.spans else 100.0
    overlap = len(pred.spans & ref.spans)
    precision = overlap / len(pred.spans)
    recall = overlap / len(ref.spans)
    if precision + recall == 0.0:
        return 0.0
    return 200.0 * precision * recall / (precision + recall)


def branching_baselines(n: int) -> tuple[BinaryTree, BinaryTree]:
    """(left-branching, right-branching) trees over ``n`` leaves."""
    if n < 1:
        raise ValueError(f"need at least one leaf, got n={n}")
    left = BinaryTree(n, tuple(0 for _ in range(n - 1)))
    right = BinaryTree(n, tuple(n - 2 - t for t in range(n - 1)))
    return left, right


def mean_depth(spans: SpanSet) -> float:
    """Mean root-to-leaf edge count of a tree, from all its internal spans.

    A leaf's depth is the number of internal spans that contain it, so the
    depths sum to the total span width.  The integer sum and one true
    division make the value exact.
    """
    return sum(end - start for start, end in spans.spans) / spans.n


def macro_avg_depth(trees) -> float:
    """Mean over sentences of the mean root-to-leaf edge count."""
    trees = list(trees)
    if not trees:
        raise ValueError("macro_avg_depth: empty corpus")
    return float(np.mean([mean_depth(spans_of(tree)) for tree in trees]))


@dataclass
class SentenceScore:
    index: int
    length: int
    f1_left: float
    f1_right: float
    f1_reference: float | None
    depth: float


@dataclass
class TreeScoreReport:
    sentences: list[SentenceScore]
    f1_left: float
    f1_right: float
    f1_reference: float | None
    avg_depth: float
    micro: bool

    def render(self) -> str:
        ref = f"{self.f1_reference:.1f}" if self.f1_reference is not None else "-"
        mode = "micro" if self.micro else "macro"
        lines = [
            f"sentences: {len(self.sentences)}   f1-averaging: {mode}",
            f"{'left-branching':>16} {'right-branching':>16} {'reference':>16} {'avg-depth':>16}",
            f"{self.f1_left:>16.1f} {self.f1_right:>16.1f} {ref:>16} {self.avg_depth:>16.2f}",
        ]
        return "\n".join(lines) + "\n"


def _strip_root(span_set: SpanSet) -> SpanSet:
    return SpanSet(span_set.n, span_set.spans - {(0, span_set.n)})


def _micro_f1(pairs: list[tuple[SpanSet, SpanSet]]) -> float:
    overlap = sum(len(p.spans & r.spans) for p, r in pairs)
    pred_total = sum(len(p.spans) for p, _ in pairs)
    ref_total = sum(len(r.spans) for _, r in pairs)
    if pred_total == 0 and ref_total == 0:
        return 100.0  # nothing to score on either side, as in unlabeled_f1
    if pred_total == 0 or ref_total == 0 or overlap == 0:
        return 0.0
    precision = overlap / pred_total
    recall = overlap / ref_total
    return 200.0 * precision * recall / (precision + recall)


def score_corpus(pred_trees, ref_trees=None, *, exclude_root: bool = False,
                 micro: bool = False) -> TreeScoreReport:
    """Score predicted trees against branching baselines and, when given,
    aligned reference trees.

    The default corpus score is the unweighted mean of per-sentence F1;
    ``micro`` pools span counts over the corpus instead.  ``exclude_root``
    drops the full-sentence span from every span set before scoring F1;
    the depth of a sentence always counts its root.
    """
    pred_trees = list(pred_trees)
    if not pred_trees:
        raise ValueError("score_corpus: empty corpus")
    if ref_trees is not None:
        ref_trees = list(ref_trees)
        if len(ref_trees) != len(pred_trees):
            raise ValueError(
                f"corpus sizes differ: {len(pred_trees)} predicted vs "
                f"{len(ref_trees)} reference trees")
        bad = [i for i, (p, r) in enumerate(zip(pred_trees, ref_trees)) if p.n != r.n]
        if bad:
            raise ValueError(f"sentence lengths differ at indices {bad}")

    def view(spans: SpanSet) -> SpanSet:
        return _strip_root(spans) if exclude_root else spans

    # the baselines depend on the sentence length alone
    baselines: dict[int, tuple[SpanSet, SpanSet]] = {}
    sentences, views = [], []
    for index, tree in enumerate(pred_trees):
        n = tree.n
        if n not in baselines:
            baselines[n] = tuple(view(spans_of(b)) for b in branching_baselines(n))
        left_s, right_s = baselines[n]
        full = spans_of(tree)
        pred = view(full)
        ref_s = view(spans_of(ref_trees[index])) if ref_trees is not None else None
        sentences.append(SentenceScore(
            index, n,
            unlabeled_f1(pred, left_s),
            unlabeled_f1(pred, right_s),
            unlabeled_f1(pred, ref_s) if ref_s is not None else None,
            mean_depth(full)))
        views.append((pred, left_s, right_s, ref_s))

    if micro:
        f1_left = _micro_f1([(p, l) for p, l, _, _ in views])
        f1_right = _micro_f1([(p, r) for p, _, r, _ in views])
        f1_ref = (_micro_f1([(p, g) for p, _, _, g in views])
                  if ref_trees is not None else None)
    else:
        f1_left = float(np.mean([s.f1_left for s in sentences]))
        f1_right = float(np.mean([s.f1_right for s in sentences]))
        f1_ref = (float(np.mean([s.f1_reference for s in sentences]))
                  if ref_trees is not None else None)
    depth = float(np.mean([s.depth for s in sentences]))
    return TreeScoreReport(sentences, f1_left, f1_right, f1_ref, depth, micro)
