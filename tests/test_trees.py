"""Tree representation: validation, spans, bracketed text."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeattn.trees import BinaryTree, TreeFormatError, export_bracketed, parse_bracketed

from conftest import random_tree


class TestValidation:
    def test_merge_count_must_match(self):
        with pytest.raises(ValueError, match="merges"):
            BinaryTree(3, (0,))

    def test_merge_positions_bounded_per_layer(self):
        with pytest.raises(ValueError, match="position"):
            BinaryTree(3, (0, 1))  # second layer has only one pair
        with pytest.raises(ValueError, match="position"):
            BinaryTree(2, (1,))

    def test_needs_a_leaf(self):
        with pytest.raises(ValueError):
            BinaryTree(0, ())

    def test_token_count(self):
        with pytest.raises(ValueError, match="tokens"):
            BinaryTree(2, (0,), ("only",))


class TestStructure:
    def test_node_spans_creation_order(self):
        # leaves first, then one node per merge: ((a b)(c d)), then (((a b) c) d)
        assert BinaryTree(4, (0, 1, 0)).node_spans() == [
            (0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4), (0, 4)]
        assert BinaryTree(4, (0, 0, 0)).node_spans() == [
            (0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (0, 3), (0, 4)]
        assert BinaryTree(1, ()).node_spans() == [(0, 1)]

    def test_span_sets(self):
        assert BinaryTree(4, (0, 1, 0)).span_set() == {(0, 2), (2, 4), (0, 4)}
        assert BinaryTree(2, (0,)).span_set() == {(0, 2)}
        assert BinaryTree(1, ()).span_set() == frozenset()
        assert BinaryTree(4, (0, 0, 0)).span_set() == {(0, 2), (0, 3), (0, 4)}

    def test_structural_equality_ignores_merge_order(self):
        # ((a b)(c d)) built left-first and right-first
        assert BinaryTree(4, (0, 1, 0)) == BinaryTree(4, (2, 0, 0))
        assert BinaryTree(4, (0, 1, 0)) != BinaryTree(4, (0, 0, 0))
        assert BinaryTree(2, (0,), ("a", "b")) != BinaryTree(2, (0,), ("a", "c"))


class TestBracketedText:
    def test_export_known_shapes(self):
        assert export_bracketed(BinaryTree(3, (0, 0))) == "( ( w1 w2 ) w3 )"
        assert export_bracketed(BinaryTree(3, (1, 0))) == "( w1 ( w2 w3 ) )"
        assert export_bracketed(BinaryTree(1, (), ("hi",))) == "( hi )"

    def test_bracket_tokens_are_escaped(self):
        line = export_bracketed(BinaryTree(3, (0, 0), ("a", "(", "b")))
        assert line == "( ( a -LRB- ) b )"
        tree, _ = parse_bracketed(line)
        assert tree.span_set() == {(0, 2), (0, 3)}
        assert tree.tokens == ("a", "-LRB-", "b")
        assert export_bracketed(BinaryTree(2, (0,), (")", "("))) == "( -RRB- -LRB- )"

    def test_parse_simple(self):
        tree, fixups = parse_bracketed("( ( a b ) c )")
        assert fixups == 0
        assert tree.tokens == ("a", "b", "c")
        assert tree.span_set() == {(0, 2), (0, 3)}
        assert tree.merges == (0, 0)

    def test_parse_single_leaf(self):
        tree, fixups = parse_bracketed("( a )")
        assert (tree.n, tree.merges, tree.tokens) == (1, (), ("a",))
        assert fixups == 0

    def test_parse_ternary_left_binarizes(self):
        tree, fixups = parse_bracketed("( a ( b ( c d ) e ) )")
        assert fixups == 1
        # inner ternary (b (c d) e) folds to ((b (c d)) e)
        assert tree.span_set() == {(2, 4), (1, 4), (1, 5), (0, 5)}

    def test_parse_unary_collapses_with_count(self):
        tree, fixups = parse_bracketed("( a ( b ) )")
        assert fixups == 1
        assert tree.span_set() == {(0, 2)}

    def test_unbalanced_raises(self):
        with pytest.raises(TreeFormatError, match="missing"):
            parse_bracketed("( a ( b c )")
        with pytest.raises(TreeFormatError, match="trailing"):
            parse_bracketed("( a b ) )")
        with pytest.raises(TreeFormatError, match="unexpected"):
            parse_bracketed(") a b")
        with pytest.raises(TreeFormatError, match="empty tree"):
            parse_bracketed("")
        with pytest.raises(TreeFormatError, match="empty constituent"):
            parse_bracketed("( )")
        with pytest.raises(TreeFormatError, match="empty constituent"):
            parse_bracketed("( a ( ) b")

    def test_trailing_content_raises(self):
        with pytest.raises(TreeFormatError, match="trailing"):
            parse_bracketed("( a b ) ( c d )")

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_random_trees(self, n, seed):
        rng = np.random.default_rng(seed)
        tokens = tuple(f"t{i}" for i in range(n))
        tree = random_tree(rng, n, tokens)
        line = export_bracketed(tree)
        parsed, fixups = parse_bracketed(line)
        assert fixups == 0
        assert parsed == tree
        assert export_bracketed(parsed) == line

    def test_deep_tree_roundtrip(self):
        n = 3000  # far past the interpreter's default recursion limit
        tree = BinaryTree(n, tuple(n - 2 - t for t in range(n - 1)),
                          tuple(f"t{i}" for i in range(n)))
        line = export_bracketed(tree)
        assert line.startswith("( t0 ( t1 ") and line.endswith(" t2999" + " )" * (n - 1))
        parsed, fixups = parse_bracketed(line)
        assert fixups == 0
        assert parsed == tree and parsed.merges == tree.merges

    @given(st.recursive(st.sampled_from("abcdefg"),
                        lambda kids: st.lists(kids, min_size=1, max_size=4),
                        max_leaves=24))
    @settings(max_examples=300, deadline=None)
    def test_merges_match_leftmost_first_oracle(self, nested):
        tree, fixups = parse_bracketed(render_nested(nested))
        assert (tree.merges, tree.tokens, fixups) == leftmost_first(nested)


def render_nested(node) -> str:
    if isinstance(node, str):
        return node
    return "( " + " ".join(render_nested(child) for child in node) + " )"


def leftmost_first(nested):
    """Reference (merges, tokens, fixups) for a nested-list bracketing:
    left-binarize, collect every constituent span, then repeatedly merge
    the leftmost adjacent pair whose union is one of those spans."""
    tokens: list[str] = []
    spans: set[tuple[int, int]] = set()
    fixups = 0

    def walk(node, is_root: bool) -> tuple[int, int]:
        nonlocal fixups
        if isinstance(node, str):
            tokens.append(node)
            return len(tokens) - 1, len(tokens)
        kid_spans = [walk(child, False) for child in node]
        if len(node) == 1 and not is_root:
            fixups += 1
        fixups += max(len(node) - 2, 0)
        span = kid_spans[0]
        for right in kid_spans[1:]:
            span = (span[0], right[1])
            spans.add(span)
        return span

    walk(nested, True)
    merges: list[int] = []
    active = [(i, i + 1) for i in range(len(tokens))]
    while len(active) > 1:
        pos = next(p for p in range(len(active) - 1)
                   if (active[p][0], active[p + 1][1]) in spans)
        merges.append(pos)
        active[pos:pos + 2] = [(active[pos][0], active[pos + 1][1])]
    return tuple(merges), tuple(tokens), fixups
