"""A union-find (disjoint set) structure over dense integer ids.

Used by the e-graph to maintain the equivalence relation over e-classes.
Path compression keeps finds effectively constant time; union-by-size keeps
trees shallow.
"""

from __future__ import annotations


class UnionFind:
    """Disjoint sets over the integers ``0 .. len(self) - 1``."""

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._size: list[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Create a fresh singleton set and return its id."""
        identifier = len(self._parent)
        self._parent.append(identifier)
        self._size.append(1)
        return identifier

    def find(self, identifier: int) -> int:
        """Return the canonical representative of ``identifier``'s set."""
        parent = self._parent
        root = parent[identifier]
        if root == identifier:      # the common case: already a representative
            return root
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[identifier] != root:
            parent[identifier], identifier = root, parent[identifier]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the surviving representative."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return root_a

    def connected(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)
