"""Small built-in graph families used by the tests."""

from __future__ import annotations

import numpy as np

from hetembed.graph import Graph, from_edges


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_tree(cycle_len: int = 20, tree_depth: int = 4, branching: int = 2) -> Graph:
    """A cycle with a complete ``branching``-ary tree grafted onto node 0.

    Cycle nodes see polynomial ball growth, tree nodes exponential growth,
    which makes the family a compact testbed for volume/curvature
    heterogeneity.
    """
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    next_id = cycle_len
    frontier = [0]
    for _ in range(tree_depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return from_edges(next_id, edges)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p) with a seeded generator."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return from_edges(n, zip(iu[mask].tolist(), ju[mask].tolist()))


def random_connected_graph(n: int, extra_edge_prob: float, seed: int) -> Graph:
    """Random spanning tree plus G(n,p)-style extra edges; always connected."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < extra_edge_prob
    edges.extend(zip(iu[mask].tolist(), ju[mask].tolist()))
    return from_edges(n, edges)
