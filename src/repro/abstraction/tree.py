"""Abstraction trees (Definition 2.6).

A rooted labelled tree whose leaves are tuple annotations and whose inner
nodes are "meta-annotations" usable as abstractions of the leaves below
them.  The tree is compatible with a K-database / K-example iff no inner
label collides with a tuple annotation.

The structure is immutable after :meth:`AbstractionTree.freeze` and
precomputes the two quantities the optimizer hits in tight loops:
ancestor chains (the abstraction options per variable) and subtree leaf
counts (the concretization-set factors of Proposition 3.5).
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from typing import Optional

from repro.errors import AbstractionError


class TreeNode:
    """A node of an abstraction tree; identified by its unique label."""

    __slots__ = ("label", "parent", "children", "depth", "_leaf_count")

    def __init__(self, label: str, parent: Optional["TreeNode"] = None):
        self.label = str(label)
        self.parent = parent
        self.children: list[TreeNode] = []
        self.depth = 0 if parent is None else parent.depth + 1
        self._leaf_count: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"{len(self.children)} children"
        return f"TreeNode({self.label!r}, depth={self.depth}, {kind})"


class AbstractionTree:
    """A provenance abstraction tree.

    Build with :meth:`add_node` (parent before child) or use the factory
    functions in :mod:`repro.abstraction.builders`.
    """

    def __init__(self, root_label: str = "*"):
        self._root = TreeNode(root_label)
        self._nodes: dict[str, TreeNode] = {root_label: self._root}
        self._frozen = False
        self._leaves: Optional[tuple[str, ...]] = None
        # Memo tables, populated lazily once the tree is frozen; the
        # optimizer hits ancestors()/leaves_under() once per candidate and
        # the chains never change after freeze().
        self._ancestor_cache: dict[str, tuple[str, ...]] = {}
        self._leaves_under_cache: dict[str, tuple[str, ...]] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, label: str, parent: str) -> TreeNode:
        """Add ``label`` as a child of ``parent``; labels must be unique."""
        if self._frozen:
            raise AbstractionError("tree is frozen; no further nodes may be added")
        if label in self._nodes:
            raise AbstractionError(f"duplicate tree label {label!r}")
        parent_node = self._nodes.get(parent)
        if parent_node is None:
            raise AbstractionError(f"unknown parent label {parent!r}")
        node = TreeNode(label, parent_node)
        parent_node.children.append(node)
        self._nodes[label] = node
        return node

    def freeze(self) -> "AbstractionTree":
        """Seal the tree and precompute leaf lists and counts."""
        self._frozen = True
        self._leaves = tuple(
            node.label for node in self._nodes.values() if node.is_leaf
        )
        self._count_leaves(self._root)
        return self

    def _count_leaves(self, node: TreeNode) -> int:
        if node.is_leaf:
            node._leaf_count = 1
        else:
            node._leaf_count = sum(self._count_leaves(c) for c in node.children)
        return node._leaf_count

    # -- queries ----------------------------------------------------------

    @property
    def root(self) -> TreeNode:
        return self._root

    def node(self, label: str) -> TreeNode:
        try:
            return self._nodes[label]
        except KeyError:
            raise AbstractionError(f"unknown tree label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._nodes

    def labels(self) -> frozenset[str]:
        """``V_T``: all labels in the tree."""
        return frozenset(self._nodes)

    def leaves(self) -> tuple[str, ...]:
        """``L_T``: the leaf labels."""
        self._require_frozen()
        assert self._leaves is not None
        return self._leaves

    def inner_labels(self) -> frozenset[str]:
        """``V_T \\ L_T``."""
        return frozenset(
            label for label, node in self._nodes.items() if not node.is_leaf
        )

    def is_leaf(self, label: str) -> bool:
        return self.node(label).is_leaf

    def height(self) -> int:
        """The maximum depth of any node."""
        return max(node.depth for node in self._nodes.values())

    def num_nodes(self) -> int:
        return len(self._nodes)

    def leaf_count(self, label: str) -> int:
        """``|L_T(v)|``: leaves in the subtree rooted at ``label``."""
        self._require_frozen()
        count = self.node(label)._leaf_count
        assert count is not None
        return count

    def leaves_under(self, label: str) -> Iterator[str]:
        """``L_T(v)``: the leaf labels below (or equal to) ``label``."""
        if self._frozen:
            cached = self._leaves_under_cache.get(label)
            if cached is None:
                cached = tuple(self._walk_leaves_under(label))
                self._leaves_under_cache[label] = cached
            return iter(cached)
        return self._walk_leaves_under(label)

    def _walk_leaves_under(self, label: str) -> Iterator[str]:
        stack = [self.node(label)]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node.label
            else:
                stack.extend(reversed(node.children))

    def ancestors(self, label: str) -> tuple[str, ...]:
        """Labels from ``label`` itself up to the root, inclusive.

        These are exactly the values an abstraction function may assign to
        an occurrence of ``label`` (Definition 3.1).
        """
        if self._frozen:
            cached = self._ancestor_cache.get(label)
            if cached is None:
                cached = self._walk_ancestors(label)
                self._ancestor_cache[label] = cached
            return cached
        return self._walk_ancestors(label)

    def _walk_ancestors(self, label: str) -> tuple[str, ...]:
        chain = []
        node: Optional[TreeNode] = self.node(label)
        while node is not None:
            chain.append(node.label)
            node = node.parent
        return tuple(chain)

    def is_ancestor(self, descendant: str, ancestor: str) -> bool:
        """``descendant <=_T ancestor`` (reflexive)."""
        node: Optional[TreeNode] = self.node(descendant)
        while node is not None:
            if node.label == ancestor:
                return True
            node = node.parent
        return False

    def path_edges(self, descendant: str, ancestor: str) -> tuple[tuple[str, str], ...]:
        """The (child, parent) edges on the path from descendant to ancestor."""
        edges = []
        node = self.node(descendant)
        while node.label != ancestor:
            if node.parent is None:
                raise AbstractionError(
                    f"{ancestor!r} is not an ancestor of {descendant!r}"
                )
            edges.append((node.label, node.parent.label))
            node = node.parent
        return tuple(edges)

    # -- compatibility (Definition 2.6) -------------------------------------

    def is_compatible_with_annotations(
        self, annotations: Container[str]
    ) -> bool:
        """True iff no inner node label is in ``annotations``.

        Only the inner labels are tested, so a registry of tuple
        annotations need not be listed.
        """
        return not any(
            label in annotations
            for label, node in self._nodes.items() if not node.is_leaf
        )

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise AbstractionError("tree must be frozen before queries; call freeze()")

    def __repr__(self) -> str:
        if self._frozen:
            return (
                f"AbstractionTree({self.num_nodes()} nodes, "
                f"{len(self.leaves())} leaves, height={self.height()})"
            )
        return f"AbstractionTree({self.num_nodes()} nodes, unfrozen)"
