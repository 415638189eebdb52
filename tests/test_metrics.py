"""Tree scoring: spans, bracket F1, baselines, depth."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeattn.metrics import (SpanSet, branching_baselines, macro_avg_depth,
                              score_corpus, spans_of, unlabeled_f1)
from treeattn.trees import export_bracketed, parse_bracketed

from conftest import oracle_f1, random_tree


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
