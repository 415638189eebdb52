"""Binary parse trees over token sequences.

A tree over ``n`` leaves is stored as the ordered list of ``n - 1`` merge
decisions taken while reducing the sentence bottom-up: the decision at
layer ``t`` names the left member of the adjacent pair merged while
``n - t`` nodes remain.  Different merge orders can describe the same
bracketing, so equality is structural (leaf tokens plus constituent
spans), and parsing a bracketed string always yields the canonical
leftmost-first order.
"""

from __future__ import annotations

from dataclasses import dataclass


class TreeFormatError(ValueError):
    """Raised for malformed bracketed tree text."""


@dataclass(eq=False)
class BinaryTree:
    n: int
    merges: tuple[int, ...]
    tokens: tuple[str, ...] | None = None

    def __post_init__(self):
        self.merges = tuple(self.merges)
        if self.tokens is not None:
            self.tokens = tuple(self.tokens)
        if self.n < 1:
            raise ValueError(f"tree needs at least one leaf, got n={self.n}")
        if len(self.merges) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} merges for {self.n} leaves, got {len(self.merges)}")
        for t, pos in enumerate(self.merges):
            if not 0 <= pos < self.n - 1 - t:
                raise ValueError(
                    f"merge {t} at position {pos} outside [0, {self.n - 1 - t})")
        if self.tokens is not None and len(self.tokens) != self.n:
            raise ValueError(
                f"{len(self.tokens)} tokens for {self.n} leaves")

    def node_spans(self) -> list[tuple[int, int]]:
        """Half-open leaf interval of every node, indexed by node id.

        Node ids follow creation order: leaves are ``0..n-1``, the merge at
        layer ``t`` creates node ``n + t``; the root is the last node.
        """
        spans = [(i, i + 1) for i in range(self.n)]
        # active node i covers [starts[i], starts[i + 1]); n ends the last one
        starts = list(range(self.n + 1))
        for pos in self.merges:
            spans.append((starts[pos], starts[pos + 2]))
            del starts[pos + 1]
        return spans

    def span_set(self) -> frozenset[tuple[int, int]]:
        """Half-open leaf intervals of all internal nodes (width >= 2)."""
        return frozenset(self.node_spans()[self.n:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryTree):
            return NotImplemented
        return (self.n == other.n and self.tokens == other.tokens
                and self.span_set() == other.span_set())

    def __hash__(self) -> int:
        return hash((self.n, self.tokens, self.span_set()))


# Penn Treebank escapes, so that a bracket token is not read back as a bracket
_LEAF_ESCAPES = {"(": "-LRB-", ")": "-RRB-"}


def export_bracketed(tree: BinaryTree) -> str:
    """Whitespace-delimited bracketing, e.g. ``( ( w1 w2 ) w3 )``.

    Exact inverse of :func:`parse_bracketed` for binary trees with no
    bracket token.  A leaf token ``(`` or ``)`` is written as ``-LRB-`` or
    ``-RRB-``, which parses back as that escape, with the tree's spans
    intact.  Trees without tokens are rendered with placeholder leaves
    ``w1..wn``.
    """
    tokens = tree.tokens or tuple(f"w{i + 1}" for i in range(tree.n))
    spans = tree.node_spans()
    opens, closes = [0] * tree.n, [0] * tree.n
    # a one-leaf tree is still wrapped in one pair of brackets
    for start, end in spans[tree.n:] or spans:
        opens[start] += 1
        closes[end - 1] += 1
    parts: list[str] = []
    for token, before, after in zip(tokens, opens, closes):
        parts += ["("] * before + [_LEAF_ESCAPES.get(token, token)] + [")"] * after
    return " ".join(parts)


def parse_bracketed(line: str) -> tuple[BinaryTree, int]:
    """Parse one bracketed tree; returns (tree, count of binarized nodes).

    Tokens and parentheses must be whitespace-delimited.  Nodes with more
    than two children are left-binarized; unary wrappers are collapsed.
    Both count toward the second return value.

    One left-to-right pass emits the merges in leftmost-first order: each
    completed child that is not the first in its open constituent merges
    with the node before it, which sits at ``pending - 2`` among the
    ``pending`` nodes that cover the leaves read so far.
    """
    symbols = line.split()
    if not symbols:
        raise TreeFormatError("empty tree line")
    tokens: list[str] = []
    merges: list[int] = []
    children: list[int] = []  # completed-child count per open constituent
    fixups = pending = 0
    for pos, symbol in enumerate(symbols):
        if pos and not children:
            raise TreeFormatError("trailing content after the root constituent")
        if symbol == "(":
            children.append(0)
            continue
        if symbol == ")":
            if not children:
                raise TreeFormatError("unbalanced parentheses: unexpected ')'")
            count = children.pop()
            if not count:
                raise TreeFormatError("empty constituent '( )'")
            if count > 2:
                fixups += count - 2
            elif count == 1 and children:  # a unary root wrapper is not a fixup
                fixups += 1
        else:
            tokens.append(symbol)
            pending += 1
        if children:
            if children[-1]:
                merges.append(pending - 2)
                pending -= 1
            children[-1] += 1
    if children:
        raise TreeFormatError("unbalanced parentheses: missing ')'")
    return BinaryTree(len(tokens), tuple(merges), tuple(tokens)), fixups
