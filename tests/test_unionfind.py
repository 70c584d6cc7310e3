import numpy as np
import pytest

from jacobiset.unionfind import connected_labels

from conftest import bfs_edge_components, bfs_labels


def _adjacency(n, a, b):
    adjacency = [set() for _ in range(n)]
    for u, v in zip(a.tolist(), b.tolist()):
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_long_path_is_one_component(rng, order):
    n = 200_000
    a = np.arange(n - 1)
    b = a + 1
    if order == "reversed":
        a, b = b[::-1], a[::-1]
    else:
        perm = rng.permutation(n - 1)
        swap = rng.random(n - 1) < 0.5
        a, b = np.where(swap, b, a)[perm], np.where(swap, a, b)[perm]
    labels = connected_labels(n, a, b)
    assert bfs_edge_components(np.column_stack([a, b])) == 1
    assert np.array_equal(labels, np.zeros(n, dtype=np.int64))


def test_random_graphs_match_bfs_labels(rng):
    for n, e in [(50, 20), (500, 300), (2000, 1900), (3000, 6000)]:
        a = rng.integers(0, n, size=e)
        b = rng.integers(0, n, size=e)
        labels = connected_labels(n, a, b)
        assert np.array_equal(labels, bfs_labels(_adjacency(n, a, b)))
        # Nodes that no edge touches are components of their own.
        touched = np.unique(np.concatenate([a, b]))
        isolated = n - len(touched)
        assert labels.max() + 1 == bfs_edge_components(np.column_stack([a, b])) + isolated


def test_empty_edge_list_labels_every_node():
    empty = np.empty(0, dtype=np.int64)
    assert np.array_equal(connected_labels(5, empty, empty), np.arange(5))
    assert len(connected_labels(0, empty, empty)) == 0
