"""Tree scoring: spans, bracket F1, baselines, depth."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeattn import metrics
from treeattn.metrics import (SpanSet, _micro_f1, branching_baselines, macro_avg_depth,
                              mean_depth, score_corpus, spans_of, unlabeled_f1)
from treeattn.trees import BinaryTree, export_bracketed, parse_bracketed

from conftest import oracle_depths, oracle_f1, oracle_spans, random_tree


def tree_of(line):
    return parse_bracketed(line)[0]


class TestSpans:
    def test_examples(self):
        assert spans_of(tree_of("( ( a b ) ( c d ) )")).spans == {(0, 2), (2, 4), (0, 4)}
        assert spans_of(tree_of("( a b )")).spans == {(0, 2)}
        assert spans_of(tree_of("( a )")).spans == frozenset()

    def test_left_branching_four_words(self):
        left, _ = branching_baselines(4)
        assert spans_of(left).spans == {(0, 2), (0, 3), (0, 4)}

    @given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_laminar_and_count(self, n, seed):
        tree = random_tree(np.random.default_rng(seed), n)
        spans = spans_of(tree).spans
        assert len(spans) == n - 1
        assert (0, n) in spans
        for a in spans:
            for b in spans:
                nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
                disjoint = a[1] <= b[0] or b[1] <= a[0]
                assert nested or disjoint


class TestUnlabeledF1:
    def test_identical_trees(self):
        s = spans_of(tree_of("( ( a b ) c )"))
        assert unlabeled_f1(s, s) == 100.0

    def test_one_third_case(self):
        pred = SpanSet(4, frozenset({(1, 3), (0, 3), (0, 4)}))
        ref = SpanSet(4, frozenset({(0, 2), (2, 4), (0, 4)}))
        assert unlabeled_f1(pred, ref) == pytest.approx(100 / 3)

    def test_root_span_always_shared(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            f1 = unlabeled_f1(spans_of(random_tree(rng, n)),
                              spans_of(random_tree(rng, n)))
            assert f1 > 0.0

    def test_short_sentences_score_100(self):
        assert unlabeled_f1(SpanSet(1, frozenset()), SpanSet(1, frozenset())) == 100.0
        assert unlabeled_f1(spans_of(tree_of("( a b )")),
                            spans_of(tree_of("( a b )"))) == 100.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            unlabeled_f1(spans_of(tree_of("( a b )")), spans_of(tree_of("( a ( b c ) )")))

    def test_symmetric_for_binary_trees(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            a, b = spans_of(random_tree(rng, n)), spans_of(random_tree(rng, n))
            assert unlabeled_f1(a, b) == pytest.approx(unlabeled_f1(b, a))

    def test_agrees_with_bracket_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            pred, ref = random_tree(rng, n), random_tree(rng, n)
            assert unlabeled_f1(spans_of(pred), spans_of(ref)) == \
                pytest.approx(oracle_f1(pred, ref), abs=1e-12)


class TestBranchingBaselines:
    def test_shapes(self):
        left, right = branching_baselines(3)
        assert export_bracketed(left) == "( ( w1 w2 ) w3 )"
        assert export_bracketed(right) == "( w1 ( w2 w3 ) )"

    def test_self_f1_is_100(self):
        for n in range(1, 10):
            left, right = branching_baselines(n)
            assert unlabeled_f1(spans_of(left), spans_of(left)) == 100.0
            assert unlabeled_f1(spans_of(right), spans_of(right)) == 100.0


class TestDepth:
    def test_mean_depth_examples(self):
        assert mean_depth(spans_of(BinaryTree(1, ()))) == 0.0
        assert mean_depth(spans_of(BinaryTree(4, (0, 1, 0)))) == 2.0
        assert mean_depth(spans_of(BinaryTree(4, (0, 0, 0)))) == 2.25

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_mean_depth_is_the_bracket_counted_depth(self, n, seed):
        tree = random_tree(np.random.default_rng(seed), n)
        assert mean_depth(spans_of(tree)) == float(np.mean(oracle_depths(tree)))

    def test_balanced_four(self):
        assert macro_avg_depth([tree_of("( ( a b ) ( c d ) )")]) == 2.0

    def test_left_branching_four(self):
        left, _ = branching_baselines(4)
        assert macro_avg_depth([left]) == pytest.approx(2.25)

    def test_closed_form_for_branching_trees(self):
        for n in range(2, 13):
            expected = ((n - 1) + n * (n - 1) / 2) / n
            left, right = branching_baselines(n)
            assert macro_avg_depth([left]) == pytest.approx(expected)
            assert macro_avg_depth([right]) == pytest.approx(expected)

    def test_corpus_average_is_unweighted(self):
        left4, _ = branching_baselines(4)
        assert macro_avg_depth([left4, tree_of("( a b )")]) == pytest.approx((2.25 + 1.0) / 2)


class TestScoreCorpus:
    def test_identity_gives_100_reference(self):
        rng = np.random.default_rng(3)
        trees = [random_tree(rng, int(rng.integers(2, 9))) for _ in range(20)]
        report = score_corpus(trees, trees)
        assert report.f1_reference == 100.0

    def test_right_branching_column(self):
        pred = [branching_baselines(n)[1] for n in (3, 5, 7)]
        report = score_corpus(pred)
        assert report.f1_right == 100.0
        assert report.f1_left < 100.0
        assert report.f1_reference is None

    def test_mean_of_per_sentence_f1(self):
        pred = [tree_of("( ( a b ) c )"), tree_of("( ( a ( b c ) ) d )")]
        ref = [tree_of("( ( a b ) c )"), tree_of("( ( a b ) ( c d ) )")]
        report = score_corpus(pred, ref)
        assert report.f1_reference == pytest.approx((100.0 + 100 / 3) / 2)

    def test_misalignment_reports_indices(self):
        pred = [tree_of("( a b )"), tree_of("( a ( b c ) )")]
        ref = [tree_of("( a b )"), tree_of("( a b )")]
        with pytest.raises(ValueError, match=r"\[1\]"):
            score_corpus(pred, ref)
        with pytest.raises(ValueError, match="sizes"):
            score_corpus(pred, ref[:1])

    def test_micro_pools_counts(self):
        # per-sentence F1s of 100 and 1/3 average to 66.7 macro, but the
        # pooled counts give a different number
        pred = [tree_of("( ( a b ) c )"), tree_of("( ( a ( b c ) ) d )")]
        ref = [tree_of("( ( a b ) c )"), tree_of("( ( a b ) ( c d ) )")]
        macro = score_corpus(pred, ref)
        micro = score_corpus(pred, ref, micro=True)
        assert micro.f1_reference == pytest.approx(100 * 3 / 5)
        assert macro.f1_reference != micro.f1_reference

    def test_micro_corpus_with_nothing_to_score_is_100(self):
        # without the root, sentences of <= 2 words keep no span on either side
        trees = [tree_of("( a b )"), tree_of("( c )")]
        report = score_corpus(trees, trees, exclude_root=True, micro=True)
        assert (report.f1_left, report.f1_right, report.f1_reference) == (100.0,) * 3

    def test_micro_one_empty_side_or_no_overlap_is_0(self):
        some, none = SpanSet(4, frozenset({(0, 2)})), SpanSet(4, frozenset())
        assert _micro_f1([(some, none)]) == 0.0
        assert _micro_f1([(none, some)]) == 0.0
        pred, ref = [tree_of("( a ( b c ) )")], [tree_of("( ( a b ) c )")]
        assert score_corpus(pred, ref, exclude_root=True, micro=True).f1_reference == 0.0

    def test_baselines_built_once_per_length(self, monkeypatch):
        built = []

        def counted(n):
            built.append(n)
            return branching_baselines(n)

        monkeypatch.setattr(metrics, "branching_baselines", counted)
        rng = np.random.default_rng(4)
        lengths = [3, 7, 12] * 16 + [12, 3]  # 50 trees of 3 distinct lengths
        score_corpus([random_tree(rng, n) for n in lengths],
                     [random_tree(rng, n) for n in lengths])
        assert sorted(built) == [3, 7, 12]

    def test_exclude_root_flag(self):
        pred = [tree_of("( ( a b ) ( c d ) )")]
        ref = [tree_of("( a ( b ( c d ) ) )")]
        with_root = score_corpus(pred, ref)
        without = score_corpus(pred, ref, exclude_root=True)
        assert without.f1_reference < with_root.f1_reference

    def test_render_contains_columns(self):
        report = score_corpus([tree_of("( a ( b c ) )")])
        text = report.render()
        assert "left-branching" in text and "right-branching" in text
        assert "avg-depth" in text


def bracketed_baselines(n):
    """Left- and right-branching trees over n leaves, parsed from their text."""
    if n == 1:
        return (tree_of("( w0 )"),) * 2
    words = [f"w{i}" for i in range(n)]
    left = "( " * (n - 1) + words[0] + "".join(f" {w} )" for w in words[1:])
    right = "".join(f"( {w} " for w in words[:-1]) + words[-1] + " )" * (n - 1)
    return tree_of(left), tree_of(right)


def oracle_micro_f1(pairs, exclude_root):
    """Pooled bracket F1 over the oracle span lists; 100 when neither side
    has a span to score."""
    overlap = pred_total = ref_total = 0
    for pred_tree, ref_tree in pairs:
        pred = oracle_spans(pred_tree, exclude_root)
        ref = oracle_spans(ref_tree, exclude_root)
        overlap += sum(1 for s in pred if s in ref)
        pred_total += len(pred)
        ref_total += len(ref)
    if pred_total == ref_total == 0:
        return 100.0
    if not pred_total or not ref_total or not overlap:
        return 0.0
    p, r = overlap / pred_total, overlap / ref_total
    return 200.0 * p * r / (p + r)


@pytest.mark.parametrize("with_ref", [False, True])
@pytest.mark.parametrize("micro", [False, True])
@pytest.mark.parametrize("exclude_root", [False, True])
def test_scores_equal_the_bracket_counting_oracle(exclude_root, micro, with_ref):
    """Every per-sentence score and corpus average, bit for bit."""
    rng = np.random.default_rng(5)
    for _ in range(4):
        # n = 1 and n = 2 always, and lengths repeat
        lengths = [1, 2, *(int(n) for n in rng.integers(1, 12, 30))]
        pred = [random_tree(rng, n) for n in lengths]
        ref = [random_tree(rng, n) for n in lengths] if with_ref else None
        report = score_corpus(pred, ref, exclude_root=exclude_root, micro=micro)
        baselines = [bracketed_baselines(n) for n in lengths]
        columns = {"f1_left": [(p, left) for p, (left, _) in zip(pred, baselines)],
                   "f1_right": [(p, right) for p, (_, right) in zip(pred, baselines)]}
        if with_ref:
            columns["f1_reference"] = list(zip(pred, ref))
        for name, pairs in columns.items():
            expected = [oracle_f1(p, g, exclude_root) for p, g in pairs]
            assert [getattr(s, name) for s in report.sentences] == expected
            corpus = (oracle_micro_f1(pairs, exclude_root) if micro
                      else float(np.mean(expected)))
            assert getattr(report, name) == corpus
        if not with_ref:
            assert report.f1_reference is None
            assert all(s.f1_reference is None for s in report.sentences)
        depths = [float(np.mean(oracle_depths(p))) for p in pred]
        assert [s.depth for s in report.sentences] == depths
        assert report.avg_depth == float(np.mean(depths))
        assert [(s.index, s.length) for s in report.sentences] == list(enumerate(lengths))
