"""Human-readable tree rendering and structure digests.

Debugging an adaptive radix tree means looking at one: ``render_ascii``
draws the node hierarchy with prefixes and partial-key edges, and
``structure_digest`` folds the whole structure into a short stable hash
so tests and bug reports can assert "same tree" without dumping it.

    >>> print(render_ascii(tree))
    N4 prefix=61 children=2
    ├─61→ Leaf key=616161 value=1
    └─62→ Leaf key=616162 value=2
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.art.nodes import Child, InnerNode, Leaf
from repro.art.tree import AdaptiveRadixTree

#: Rendering is truncated beyond this many children per node.
MAX_CHILDREN_SHOWN = 8


def _describe(node: Child, max_value_chars: int) -> str:
    if isinstance(node, Leaf):
        value = repr(node.value)
        if len(value) > max_value_chars:
            value = value[: max_value_chars - 3] + "..."
        return f"Leaf key={node.key.hex()} value={value}"
    prefix = node.prefix.hex() or "-"
    return f"{node.kind} prefix={prefix} children={node.num_children}"


def render_ascii(
    tree_or_node,
    max_depth: int = 16,
    max_value_chars: int = 24,
) -> str:
    """Draw the tree with box-drawing branches; returns one string."""
    root = (
        tree_or_node.root
        if isinstance(tree_or_node, AdaptiveRadixTree)
        else tree_or_node
    )
    if root is None:
        return "(empty tree)"
    lines: List[str] = [_describe(root, max_value_chars)]

    def walk(node: Child, indent: str, depth: int) -> None:
        if isinstance(node, Leaf) or depth >= max_depth:
            if isinstance(node, InnerNode) and depth >= max_depth:
                lines.append(indent + "└─ ... (max depth reached)")
            return
        items = list(node.children_items())
        shown = items[:MAX_CHILDREN_SHOWN]
        for position, (byte, child) in enumerate(shown):
            last = position == len(shown) - 1 and len(items) <= MAX_CHILDREN_SHOWN
            connector = "└─" if last else "├─"
            lines.append(
                f"{indent}{connector}{byte:02x}→ "
                f"{_describe(child, max_value_chars)}"
            )
            extension = "  " if last else "│ "
            walk(child, indent + extension, depth + 1)
        if len(items) > MAX_CHILDREN_SHOWN:
            lines.append(
                f"{indent}└─ ... {len(items) - MAX_CHILDREN_SHOWN} more children"
            )

    walk(root, "", 1)
    return "\n".join(lines)


def structure_digest(tree: AdaptiveRadixTree, include_values: bool = False) -> str:
    """A short stable hash of the tree's structure (and optionally values).

    Two trees with identical node kinds, prefixes, partial keys, and
    leaf keys produce the same digest regardless of how they were built
    (incremental insert vs. bulk load) — the property the bulk-loader
    tests rely on.
    """
    hasher = hashlib.sha256()

    def walk(node: Optional[Child]) -> None:
        if node is None:
            hasher.update(b"<nil>")
            return
        if isinstance(node, Leaf):
            hasher.update(b"L" + node.key)
            if include_values:
                hasher.update(repr(node.value).encode())
            return
        hasher.update(node.kind.encode() + node.prefix)
        for byte, child in node.children_items():
            hasher.update(bytes([byte]))
            walk(child)

    walk(tree.root)
    return hasher.hexdigest()[:16]
