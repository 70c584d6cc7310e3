"""Connectivity: an array-based union-find with path halving and union by
size for incremental merging, and a vectorized labelling of the connected
components of a whole edge list."""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Incremental union-find over nodes ``0..n-1``.

    The program no longer uses it: `collapse.VertexGroups` keeps a label
    array. It stays for the benchmark's tracer, which wraps ``find`` and
    ``union`` by name (``perfbench/tracing.py``).
    """

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


def connected_labels(n: int, a, b) -> np.ndarray:
    """Component labels of the graph on nodes ``0..n-1`` with edges
    ``a[i] -- b[i]``, numbered by first occurrence in node order.

    Each round hooks every root onto a smaller root it shares an edge
    with, then jumps pointers until every node points at its root. A node
    never points above itself, so each root is the smallest node of its
    tree and roots in ascending order are the components in order of
    first occurrence.
    """
    parent = np.arange(n, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    while len(a):
        ra, rb = parent.take(a), parent.take(b)
        # An edge inside one tree stays inside it: drop it for good.
        split = ra != rb
        a, b, ra, rb = (np.compress(split, x) for x in (a, b, ra, rb))
        if not len(a):
            break
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while True:
            grand = parent.take(parent)
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = parent == np.arange(n)
    return (np.cumsum(roots) - 1).take(parent)
