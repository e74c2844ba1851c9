"""Tests for tree rendering and digests."""

import pytest

from repro.art import AdaptiveRadixTree
from repro.art.debug import render_ascii, structure_digest


@pytest.fixture
def tree():
    t = AdaptiveRadixTree()
    t.insert(b"aaaa", 1)
    t.insert(b"aaab", 2)
    return t


class TestRenderAscii:
    def test_empty(self):
        assert render_ascii(AdaptiveRadixTree()) == "(empty tree)"

    def test_single_leaf(self):
        t = AdaptiveRadixTree()
        t.insert(b"abcd", 42)
        text = render_ascii(t)
        assert "Leaf" in text and "61626364" in text and "42" in text

    def test_shows_prefix_and_edges(self, tree):
        text = render_ascii(tree)
        assert "N4 prefix=616161" in text
        assert "61→" in text and "62→" in text
        assert "├─" in text and "└─" in text

    def test_truncates_wide_nodes(self):
        t = AdaptiveRadixTree()
        for i in range(40):
            t.insert(bytes([1, i, 0, 0]), i)
        text = render_ascii(t)
        assert "more children" in text

    def test_truncates_long_values(self):
        t = AdaptiveRadixTree()
        t.insert(b"abcd", "x" * 100)
        assert "..." in render_ascii(t)

    def test_max_depth(self):
        t = AdaptiveRadixTree()
        # A comb: every byte level has a two-way split.
        for i in range(8):
            key = bytes([1] * i + [0] * (8 - i))
            t.upsert(key, i)
            key = bytes([1] * i + [2] + [0] * (7 - i))
            t.upsert(key, i)
        text = render_ascii(t, max_depth=2)
        assert "max depth" in text


class TestDigest:
    def test_same_content_same_digest(self, tree):
        other = AdaptiveRadixTree()
        other.insert(b"aaab", 2)
        other.insert(b"aaaa", 1)
        assert structure_digest(tree) == structure_digest(other)

    def test_different_structure_different_digest(self, tree):
        other = AdaptiveRadixTree()
        other.insert(b"aaaa", 1)
        other.insert(b"aabb", 2)
        assert structure_digest(tree) != structure_digest(other)

    def test_values_only_matter_when_requested(self, tree):
        other = AdaptiveRadixTree()
        other.insert(b"aaaa", 99)
        other.insert(b"aaab", 2)
        assert structure_digest(tree) == structure_digest(other)
        assert structure_digest(tree, include_values=True) != structure_digest(
            other, include_values=True
        )

    def test_empty_tree_digest_stable(self):
        assert structure_digest(AdaptiveRadixTree()) == structure_digest(
            AdaptiveRadixTree()
        )
